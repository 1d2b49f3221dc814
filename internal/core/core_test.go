package core

import (
	"math"
	"runtime"
	"testing"

	"rckalign/internal/costmodel"
	"rckalign/internal/pairstore"
	"rckalign/internal/sched"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
	"rckalign/internal/trace"
)

// smallPairs computes an 8-structure dataset's pair results once for the
// whole test package (the native compute is the slow part).
var smallPR = func() *PairResults {
	ds := synth.Small(8, 77)
	return ComputeAllPairsShared(ds, tmalign.FastOptions(), pairstore.New(0))
}()

func TestComputeAllPairsComplete(t *testing.T) {
	pr := smallPR
	if len(pr.Pairs) != 28 || len(pr.Results) != 28 {
		t.Fatalf("pairs = %d", len(pr.Pairs))
	}
	for k, r := range pr.Results {
		if r == nil {
			t.Fatalf("missing result %d", k)
		}
		if r.TM1 < 0 || r.TM1 > 1 {
			t.Fatalf("result %d TM out of range", k)
		}
		if r.Ops.DPCells == 0 {
			t.Fatalf("result %d has no ops", k)
		}
	}
	// Get must agree with slot order.
	for k, p := range pr.Pairs {
		if pr.Get(p) != pr.Results[k] {
			t.Fatal("index mismatch")
		}
	}
}

// TestComputePairsSharedAllocs budgets a cold CK34 all-vs-all through a
// two-worker store per pair: the comparison's three objects (context,
// Result, alignment), the store's entry and its ready channel, and each
// structure's one preparation and the store's map growth spread over
// the 561 pairs. Preparing per pair, as the one-shot tmalign.Compare
// does, costs 8 more.
func TestComputePairsSharedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties the workspace pool at random")
	}
	ds := synth.CK34()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pr := ComputeAllPairsShared(ds, tmalign.FastOptions(), pairstore.New(2))
	runtime.ReadMemStats(&m1)
	perPair := float64(m1.Mallocs-m0.Mallocs) / float64(len(pr.Pairs))
	t.Logf("%.2f allocations per pair", perPair)
	if perPair > 7 {
		t.Errorf("%.2f allocations per pair, budget 7", perPair)
	}
}

func TestSerialSecondsOrdering(t *testing.T) {
	pr := smallPR
	p54 := pr.SerialSeconds(costmodel.P54C())
	amd := pr.SerialSeconds(costmodel.AMD24())
	if p54 <= amd {
		t.Errorf("P54C (%v) must be slower than AMD (%v)", p54, amd)
	}
	total := pr.TotalOps()
	if total.DPCells == 0 {
		t.Error("TotalOps empty")
	}
}

func TestRunMatchesSerialAtOneSlave(t *testing.T) {
	pr := smallPR
	r, err := Run(pr, 1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	serial := pr.SerialSeconds(costmodel.P54C())
	// One master + one slave: total must be within ~2% of serial (the
	// paper observes 2027 vs 2029 s).
	if math.Abs(r.TotalSeconds-serial)/serial > 0.02 {
		t.Errorf("1-slave run %v vs serial %v: overhead too large", r.TotalSeconds, serial)
	}
	if r.Collected != len(pr.Pairs) {
		t.Errorf("collected %d of %d", r.Collected, len(pr.Pairs))
	}
}

func TestRunSpeedupScales(t *testing.T) {
	pr := smallPR
	cfg := DefaultConfig()
	r1, err := Run(pr, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Run(pr, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	speedup := r1.TotalSeconds / r4.TotalSeconds
	if speedup < 2.5 || speedup > 4.01 {
		t.Errorf("4-slave speedup = %v, want in (2.5, 4]", speedup)
	}
	if r4.FarmStats.MakespanSeconds <= 0 {
		t.Error("farm stats missing")
	}
	total := 0
	for _, n := range r4.FarmStats.JobsPerSlave {
		total += n
	}
	if total != len(pr.Pairs) {
		t.Errorf("jobs per slave total %d", total)
	}
}

func TestRunDeterministic(t *testing.T) {
	pr := smallPR
	a, err := Run(pr, 5, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(pr, 5, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalSeconds != b.TotalSeconds || a.LoadSeconds != b.LoadSeconds {
		t.Errorf("simulation not deterministic: %v vs %v", a.TotalSeconds, b.TotalSeconds)
	}
}

func TestRunValidatesSlaveCount(t *testing.T) {
	pr := smallPR
	if _, err := Run(pr, 0, DefaultConfig()); err == nil {
		t.Error("0 slaves accepted")
	}
	if _, err := Run(pr, 48, DefaultConfig()); err == nil {
		t.Error("48 slaves accepted (only 47 fit beside the master)")
	}
}

func TestRunSweep(t *testing.T) {
	pr := smallPR
	counts := []int{1, 3, 5}
	rs, err := RunSweep(pr, counts, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("results = %d", len(rs))
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].TotalSeconds >= rs[i-1].TotalSeconds {
			t.Errorf("more slaves not faster: %v", rs)
		}
	}
}

func TestOddSlaveCounts(t *testing.T) {
	c := OddSlaveCounts(47)
	if len(c) != 24 || c[0] != 1 || c[23] != 47 {
		t.Errorf("odd counts = %v", c)
	}
}

func TestLPTOrderingNotWorse(t *testing.T) {
	pr := smallPR
	fifo, err := Run(pr, 5, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Order = sched.LPT
	lpt, err := Run(pr, 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// LPT should not be substantially worse than FIFO.
	if lpt.TotalSeconds > fifo.TotalSeconds*1.1 {
		t.Errorf("LPT %v much worse than FIFO %v", lpt.TotalSeconds, fifo.TotalSeconds)
	}
}

func TestWireSizeModels(t *testing.T) {
	if StructBytes(100) <= StructBytes(10) {
		t.Error("StructBytes not increasing")
	}
	if FileBytes(100) <= StructBytes(100) {
		t.Error("a PDB file should be larger than the packed structure")
	}
	if ResultBytes(100) <= 0 {
		t.Error("ResultBytes")
	}
}

func TestLoadDatasetDirErrors(t *testing.T) {
	if _, err := LoadDatasetDir("x", nil); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := LoadDatasetDir("x", []string{"/nonexistent.pdb"}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRunWithTrace(t *testing.T) {
	pr := smallPR
	cfg := DefaultConfig()
	rec := trace.New()
	cfg.Trace = rec
	r, err := Run(pr, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every slave core and the master must have recorded activity.
	if got := len(rec.Tracks()); got != 5 {
		t.Fatalf("tracks = %v", rec.Tracks())
	}
	// Slaves should be busy most of the run (near-linear speedup claim).
	for _, track := range rec.Tracks() {
		u, ok := r.CoreUtilization[track]
		if !ok {
			t.Errorf("traced core %s has no utilization in the report", track)
		} else if track != "rck00" && u < 0.5 { // the master is mostly idle
			t.Errorf("slave %s utilization %v, want busy cores", track, u)
		}
	}
}
