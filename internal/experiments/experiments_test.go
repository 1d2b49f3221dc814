package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"rckalign/internal/core"
	"rckalign/internal/fault"
	"rckalign/internal/pairstore"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

// smallPairs are two small datasets' pair results, computed once, so the
// table drivers can be exercised without the full CK34/RS119 native
// compute.
var smallPairs = sync.OnceValue(func() [2]*core.PairResults {
	store := pairstore.New(0)
	return [2]*core.PairResults{
		core.ComputeAllPairsShared(synth.Small(8, 31), tmalign.FastOptions(), store),
		core.ComputeAllPairsShared(synth.Small(9, 32), tmalign.FastOptions(), store),
	}
})

// smallEnv is a fresh Env over smallPairs.
func smallEnv() *Env {
	prs := smallPairs()
	return &Env{CK34: prs[0], RS119: prs[1]}
}

// wantRows fails unless every label starts a line of the rendered table.
func wantRows(t *testing.T, out string, labels ...string) {
	t.Helper()
	for _, l := range labels {
		if !strings.Contains(out, "\n"+l+" ") {
			t.Errorf("no %q row in:\n%s", l, out)
		}
	}
}

func TestTableI(t *testing.T) {
	out := tableI()
	for _, want := range []string{"6x4 mesh", "48 @ 800 MHz", "16KB", "384KB", "4 iMCs"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestPaperReferenceSeries(t *testing.T) {
	// The embedded paper values must cover all 24 sweep points and be
	// internally consistent (Table IV speedup 1 at 1 slave; Table V
	// agrees with Tables II/III at the endpoints).
	for n := 1; n <= 47; n += 2 {
		if _, ok := paperT2RckAlign[n]; !ok {
			t.Errorf("Table II rckAlign missing n=%d", n)
		}
		if _, ok := paperT2Dist[n]; !ok {
			t.Errorf("Table II dist missing n=%d", n)
		}
		if _, ok := paperT4CK34Speedup[n]; !ok {
			t.Errorf("Table IV CK34 missing n=%d", n)
		}
		if _, ok := paperT4RS119Speedup[n]; !ok {
			t.Errorf("Table IV RS119 missing n=%d", n)
		}
	}
	if paperT4CK34Speedup[1] != 1 || paperT4RS119Speedup[1] != 1 {
		t.Error("speedup at 1 slave must be 1")
	}
	if paperT2RckAlign[47] != paperT5["CK34"][2] {
		t.Error("Table II and Table V disagree on CK34 @ 47 slaves")
	}
	if paperT3["P54C"]["CK34"] != paperT5["CK34"][1] {
		t.Error("Table III and Table V disagree on the CK34 P54C baseline")
	}
	// Near-linear speedup claim: paper's own numbers.
	if paperT4RS119Speedup[47] < 40 {
		t.Error("paper's RS119 speedup should be near-linear")
	}
}

func TestSchedulingAblation(t *testing.T) {
	out, err := smallEnv().orderingAblation()
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, out, "7", "15", "31", "47")
}

func TestMasterTreeAblation(t *testing.T) {
	env := smallEnv()
	out, err := env.masterTreeAblation()
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, out, "8", "16", "32", "40")
	pairs := len(env.CK34.Pairs)
	var flat8 core.RunResult
	for _, n := range []int{8, 16, 32, 40} {
		for _, chips := range []int{1, 2, 4} {
			r, err := masterTree(env.CK34, n, chips, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if r.Collected != pairs {
				t.Errorf("%d workers on %d chips collected %d of %d pairs", n, chips, r.Collected, pairs)
			}
			if n == 8 && chips == 1 {
				flat8 = r
			}
		}
	}
	// What the deleted on-chip sub-master protocol rejected: the same
	// tree under a fault plan recovers the dead slave's job.
	plan, err := fault.ParseSpec(fmt.Sprintf("seed=1;kill=2@%g", 0.25*flat8.TotalSeconds))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Faults = plan
	r, err := masterTree(env.CK34, 8, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Faults == nil || r.Faults.Injected.CoresKilled != 1 || r.Collected != pairs {
		t.Errorf("tree under a kill: collected %d of %d, faults %+v", r.Collected, pairs, r.Faults)
	}
}

func TestFasterCoresAblation(t *testing.T) {
	out, err := smallEnv().fasterCoresAblation()
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, out, "0.8 GHz", "12.8 GHz", "204.8 GHz", "3276.8 GHz", "52428.8 GHz")
}

func TestMCPSCPartitionAblation(t *testing.T) {
	out, err := mcpscPartitionAblation()
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, out, "equal", "proportional")
}

// synthCK34 fabricates a CK34-sized workload (34 chains, 561 pairs)
// without running native TM-align, so the resilience sweep stays fast.
func synthCK34() *core.PairResults {
	ds := synth.CK34()
	lengths := make([]int, ds.Len())
	for i, s := range ds.Structures {
		lengths[i] = s.Len()
	}
	return core.SynthPairResults("CK34-synth", lengths)
}

func TestCacheBatchAblation(t *testing.T) {
	out, err := cacheBatchAblation(synthCK34())
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, out, "baseline", "cached", "cached+batched", "cached+batched+affinity")
	for _, want := range []string{"Reduction", "Hit rate", "Peak Mbox"} {
		if !strings.Contains(out, want) {
			t.Errorf("cache/batch table missing %q:\n%s", want, out)
		}
	}
}

func TestResilienceSweep(t *testing.T) {
	out, err := resilienceSweep(synthCK34())
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, out, "0", "1", "2", "4", "8")
	for _, want := range []string{"Killed", "Slowdown", "Lost"} {
		if !strings.Contains(out, want) {
			t.Errorf("resilience table missing %q:\n%s", want, out)
		}
	}
}

func TestChipScalingSweep(t *testing.T) {
	out, err := chipScalingSweep(synthCK34(), 12, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, out, "1", "2", "4")
	for _, want := range []string{"Chips", "Efficiency", "Root Inbox", "Inter MB", "Intra MB", "slaves/chip"} {
		if !strings.Contains(out, want) {
			t.Errorf("chip scaling table missing %q:\n%s", want, out)
		}
	}
	// The 1-chip row has no interchip tier.
	if !strings.Contains(out, "-") {
		t.Errorf("1-chip row should dash out the interchip columns:\n%s", out)
	}
}
