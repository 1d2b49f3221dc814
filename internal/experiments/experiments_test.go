package experiments

import (
	"fmt"
	"strings"
	"testing"

	"rckalign/internal/core"
	"rckalign/internal/fault"
	"rckalign/internal/pairstore"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

// smallEnv builds an Env over a small dataset so the table drivers can
// be exercised without the full CK34/RS119 native compute.
func smallEnv() *Env {
	ds := synth.Small(8, 31)
	pr := core.ComputeAllPairsShared(ds, tmalign.FastOptions(), pairstore.New(0))
	return &Env{CK34: pr}
}

func TestTableI(t *testing.T) {
	tb := TableI()
	out := tb.String()
	for _, want := range []string{"6x4 mesh", "48 @ 800 MHz", "16KB", "384KB", "4 iMCs"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestTableIIShape(t *testing.T) {
	env := smallEnv()
	tb, err := env.TableII()
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 24 {
		t.Errorf("Table II rows = %d, want 24 (slaves 1..47 odd)", tb.NumRows())
	}
	out := tb.String()
	if !strings.Contains(out, "rckAlign") || !strings.Contains(out, "distributed") {
		t.Error("Table II missing columns")
	}
}

func TestTableIIIAndIVAndVWithMissingRS119(t *testing.T) {
	env := smallEnv()
	t3 := env.TableIII()
	if t3.NumRows() != 2 { // only CK34 rows when RS119 is nil
		t.Errorf("Table III rows = %d, want 2", t3.NumRows())
	}
	t4, err := env.TableIV()
	if err != nil {
		t.Fatal(err)
	}
	if t4.NumRows() != 24 {
		t.Errorf("Table IV rows = %d", t4.NumRows())
	}
	t5, err := env.TableV()
	if err != nil {
		t.Fatal(err)
	}
	if t5.NumRows() != 1 {
		t.Errorf("Table V rows = %d, want 1 (CK34 only)", t5.NumRows())
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
	env := smallEnv()
	tb, err := env.SchedulingAblation()
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 4 {
		t.Errorf("ablation rows = %d", tb.NumRows())
	}
}

func TestMasterTreeAblation(t *testing.T) {
	env := smallEnv()
	tb, err := env.MasterTreeAblation()
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 4 {
		t.Errorf("master-tree rows = %d", tb.NumRows())
	}
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

func TestWriteAll(t *testing.T) {
	env := smallEnv()
	var sb strings.Builder
	if err := env.WriteAll(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table I", "Table II", "Table III", "Table IV", "Table V", "Ablation"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteAll missing %q", want)
		}
	}
}

func TestFasterCoresAblation(t *testing.T) {
	env := smallEnv()
	tb, err := env.FasterCoresAblation()
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 5 {
		t.Errorf("faster-cores rows = %d", tb.NumRows())
	}
}

func TestMCPSCPartitionAblation(t *testing.T) {
	tb, err := MCPSCPartitionAblation()
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 {
		t.Errorf("MC-PSC ablation rows = %d", tb.NumRows())
	}
}

func TestFigureRenderers(t *testing.T) {
	env := smallEnv()
	f5, err := env.Figure5(50, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 5", "rckAlign", "distributed", "log scale"} {
		if !strings.Contains(f5, want) {
			t.Errorf("Figure 5 missing %q", want)
		}
	}
	f6, err := env.Figure6(50, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 6", "CK34", "speedup"} {
		if !strings.Contains(f6, want) {
			t.Errorf("Figure 6 missing %q", want)
		}
	}
	// RS119 nil: Figure 6 renders the CK34 series only, without error.
	if strings.Contains(f6, "RS119") {
		t.Error("Figure 6 should omit the missing RS119 series")
	}
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
	tb, err := CacheBatchAblation(synthCK34())
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 4 {
		t.Errorf("cache/batch ablation rows = %d, want 4", tb.NumRows())
	}
	out := tb.String()
	for _, want := range []string{"baseline", "cached+batched+affinity", "Reduction", "Hit rate", "Peak Mbox"} {
		if !strings.Contains(out, want) {
			t.Errorf("cache/batch table missing %q:\n%s", want, out)
		}
	}
}

func TestResilienceSweep(t *testing.T) {
	tb, err := ResilienceSweep(synthCK34())
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 5 {
		t.Errorf("resilience rows = %d, want 5 (k = 0,1,2,4,8)", tb.NumRows())
	}
	out := tb.String()
	for _, want := range []string{"Killed", "Slowdown", "Lost"} {
		if !strings.Contains(out, want) {
			t.Errorf("resilience table missing %q:\n%s", want, out)
		}
	}
}

func TestChipScalingSweep(t *testing.T) {
	tb, err := ChipScalingSweep(synthCK34(), 12, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 3 {
		t.Errorf("chip scaling rows = %d, want 3", tb.NumRows())
	}
	out := tb.String()
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
