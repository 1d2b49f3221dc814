package core

import (
	"math"
	"path/filepath"
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

func TestCacheRoundTrip(t *testing.T) {
	pr := smallPR
	path := filepath.Join(t.TempDir(), "cache.gob")
	if err := pr.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPairResults(pr.Dataset, path)
	if err != nil {
		t.Fatal(err)
	}
	for k := range pr.Results {
		a, b := pr.Results[k], got.Results[k]
		if a.TM1 != b.TM1 || a.TM2 != b.TM2 || a.RMSD != b.RMSD || a.Ops != b.Ops {
			t.Fatalf("cache round trip mismatch at %d", k)
		}
	}
	// Replay must produce identical simulated timings.
	r1, err := Run(pr, 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(got, 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalSeconds != r2.TotalSeconds {
		t.Errorf("cached replay differs: %v vs %v", r1.TotalSeconds, r2.TotalSeconds)
	}
}

func TestCacheRejectsWrongDataset(t *testing.T) {
	pr := smallPR
	path := filepath.Join(t.TempDir(), "cache.gob")
	if err := pr.Save(path); err != nil {
		t.Fatal(err)
	}
	other := synth.Small(8, 123) // same size, different structures
	if _, err := LoadPairResults(other, path); err == nil {
		t.Error("cache accepted for a different dataset")
	}
	ck := synth.CK34()
	if _, err := LoadPairResults(ck, path); err == nil {
		t.Error("cache accepted for a different-size dataset")
	}
}

func TestComputeOrLoad(t *testing.T) {
	ds := synth.Small(4, 5)
	path := filepath.Join(t.TempDir(), "c.gob")
	a, err := ComputeOrLoadShared(ds, tmalign.FastOptions(), path, pairstore.New(0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ComputeOrLoadShared(ds, tmalign.FastOptions(), path, pairstore.New(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Results) != len(b.Results) {
		t.Fatal("reload mismatch")
	}
	for k := range a.Results {
		if a.Results[k].TM1 != b.Results[k].TM1 {
			t.Fatal("reload score mismatch")
		}
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
	lo, hi := rec.Span()
	if hi <= lo {
		t.Fatal("empty trace span")
	}
	for _, track := range rec.Tracks() {
		if track == "rck00" {
			continue // master: mostly idle
		}
		if u := rec.Utilization(track, lo, hi); u < 0.5 {
			t.Errorf("slave %s utilization %v, want busy cores", track, u)
		}
	}
	_ = r
}
