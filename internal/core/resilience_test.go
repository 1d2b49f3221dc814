package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"rckalign/internal/fault"
	"rckalign/internal/rckskel"
	"rckalign/internal/synth"
)

// synthCK34PR fabricates a CK34-sized workload (34 chains, 561 pairs)
// with synthetic operation counts, so resilience tests run in
// milliseconds instead of the native TM-align minutes.
func synthCK34PR() *PairResults {
	ds := synth.CK34()
	lengths := make([]int, ds.Len())
	for i, s := range ds.Structures {
		lengths[i] = s.Len()
	}
	return SynthPairResults("CK34-synth", lengths)
}

// TestResilienceAcceptance is the subsystem's acceptance criterion:
// fail-stop 4 of 47 slaves mid-run on a CK34-sized all-vs-all task; the
// farm must still score every one of the 561 pairs exactly once,
// FaultStats must account for the injected events, and the same plan
// must reproduce the identical Report byte-for-byte across two runs.
func TestResilienceAcceptance(t *testing.T) {
	pr := synthCK34PR()
	if len(pr.Pairs) != 561 {
		t.Fatalf("CK34 pair count = %d, want 561", len(pr.Pairs))
	}
	const slaves = 47

	// Fault-free run to scale the kill times to mid-run.
	base, err := Run(pr, slaves, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t0 := base.TotalSeconds

	run := func() (RunResult, map[int]int) {
		plan := &fault.Plan{
			Seed: 7,
			Kills: []fault.CoreFailure{
				{Core: 5, At: 0.2 * t0},
				{Core: 13, At: 0.35 * t0},
				{Core: 27, At: 0.5 * t0},
				{Core: 40, At: 0.65 * t0},
			},
		}
		cfg := DefaultConfig()
		cfg.Faults = plan
		got := map[int]int{}
		cfg.Collect = func(r rckskel.Result) { got[r.JobID]++ }
		r, err := Run(pr, slaves, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r, got
	}

	r1, got1 := run()
	if len(got1) != 561 {
		t.Fatalf("scored %d of 561 pairs", len(got1))
	}
	for id, n := range got1 {
		if n != 1 {
			t.Errorf("pair job %d scored %d times", id, n)
		}
	}
	f := r1.Faults
	if f == nil {
		t.Fatal("no FaultStats block on a fault-tolerant run")
	}
	if f.Injected.CoresKilled != 4 {
		t.Errorf("CoresKilled = %d, want 4", f.Injected.CoresKilled)
	}
	if want := []int{5, 13, 27, 40}; len(f.DeadCores) != 4 ||
		f.DeadCores[0] != want[0] || f.DeadCores[1] != want[1] ||
		f.DeadCores[2] != want[2] || f.DeadCores[3] != want[3] {
		t.Errorf("DeadCores = %v, want %v", f.DeadCores, want)
	}
	if f.Timeouts == 0 || f.Retries == 0 {
		t.Errorf("4 kills left no recovery trace: %+v", f)
	}
	if f.LostJobs != 0 {
		t.Errorf("lost %d jobs with 43 healthy slaves", f.LostJobs)
	}
	if r1.Collected != 561 {
		t.Errorf("Report.Collected = %d, want 561", r1.Collected)
	}
	if r1.TotalSeconds <= t0 {
		t.Errorf("killing 4 cores did not cost time: %v <= fault-free %v", r1.TotalSeconds, t0)
	}

	// Determinism: identical plan, identical report, byte for byte.
	r2, got2 := run()
	b1, err := json.Marshal(r1.Report)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(r2.Report)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("same plan, different reports:\n%s\n%s", b1, b2)
	}
	if len(got2) != len(got1) {
		t.Errorf("collection diverges between identical runs: %d vs %d", len(got2), len(got1))
	}
}

// TestResilienceLinkFaults exercises the full spec surface end to end:
// a probabilistic drop rule plus a corrupt rule on the master's links,
// parsed from the command-line spec grammar.
func TestResilienceLinkFaults(t *testing.T) {
	pr := synthCK34PR()
	plan, err := fault.ParseSpec("seed=3;drop=0>*@p0.02;corrupt=*>0@p0.02")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Faults = plan
	got := map[int]int{}
	cfg.Collect = func(r rckskel.Result) { got[r.JobID]++ }
	r, err := Run(pr, 47, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 561 {
		t.Fatalf("scored %d of 561 pairs", len(got))
	}
	f := r.Faults
	if f.Injected.Dropped == 0 && f.Injected.Corrupted == 0 {
		t.Errorf("2%% fault rates over >1100 messages injected nothing: %+v", f.Injected)
	}
	if f.Injected.Dropped > 0 && f.Timeouts == 0 {
		t.Errorf("drops went undetected: %+v", f)
	}
	if f.Injected.Corrupted > 0 && f.DetectedCorrupt == 0 && f.Timeouts == 0 {
		t.Errorf("corruptions went undetected: %+v", f)
	}
	if f.LostJobs != 0 {
		t.Errorf("lost %d jobs to transient link faults", f.LostJobs)
	}
}
