package core

import (
	"errors"
	"testing"

	"rckalign/internal/farm"
	"rckalign/internal/fault"
	"rckalign/internal/rckskel"
	"rckalign/internal/sim"
)

// FuzzFaultPlan drives the -faults grammar end to end: whatever the
// spec, a run either fails to parse, is rejected with the typed plan
// error, or completes with every job accounted for — collected exactly
// once or reported lost — on the shared-queue and the per-worker-queue
// (affinity) farm alike. It never deadlocks and never panics.
func FuzzFaultPlan(f *testing.F) {
	for _, spec := range []string{
		"", "seed=1", "kill=0@10",
		"seed=1;kill=12@40",
		"seed=1;kill=5@10;drop=0>*@p0.01",
		"seed=1;kill=5@10;kill=13@20;kill=27@30;kill=40@40",
		"seed=3;drop=0>*@p0.02;corrupt=*>0@p0.02",
		"seed=1;kill=12@10;kill=30@20",
		"kill=1@0.5;kill=2@0.5;kill=3@0.5;kill=4@0.5;kill=5@0.5;kill=6@0.5",
		"stall=2@0.2+5;kill=2@6", "stall=3@1+0.25;delay=3>0@0.5",
		"corrupt=*>0@every1", "corrupt=0>*@every2;drop=*>0@every3",
		"delay=*>*@100", "kill=3@NaN", "stall=1@0+Inf",
	} {
		f.Add(spec)
	}
	lengths := []int{60, 75, 90, 110, 130, 150, 170, 200}
	pr := SynthPairResults("fuzz", lengths)
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := fault.ParseSpec(spec)
		if err != nil {
			return
		}
		for _, affinity := range []bool{false, true} {
			seen := map[int]bool{}
			cfg := DefaultConfig()
			cfg.Faults, cfg.Affinity = plan, affinity
			cfg.Collector = farm.CollectorFunc(func(r rckskel.Result) {
				if seen[r.JobID] {
					t.Errorf("affinity=%t: job %d collected twice", affinity, r.JobID)
				}
				seen[r.JobID] = true
			})
			r, err := Run(pr, 6, cfg)
			var deadlock *sim.DeadlockError
			switch {
			case errors.As(err, &deadlock):
				t.Fatalf("affinity=%t: %v", affinity, err)
			case err != nil:
				if !errors.Is(err, farm.ErrFaultPlan) {
					t.Fatalf("affinity=%t: untyped error %v", affinity, err)
				}
			case r.Collected != len(seen) || r.Collected+r.Faults.LostJobs != len(pr.Pairs):
				t.Fatalf("affinity=%t: collected %d (%d distinct) + lost %d of %d jobs",
					affinity, r.Collected, len(seen), r.Faults.LostJobs, len(pr.Pairs))
			}
		}
	})
}
