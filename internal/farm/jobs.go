package farm

import (
	"fmt"

	"rckalign/internal/rckskel"
	"rckalign/internal/sched"
)

// BuildJobs converts an ordered pair list into rckskel jobs: job k gets
// ID idBase+k and the wire size returned by bytes (the request payload
// the master ships to a slave). A non-positive size is rejected with
// rckskel.ErrJobBytes — it would silently corrupt the NoC transfer
// model downstream.
func BuildJobs(pairs []sched.Pair, idBase int, bytes func(p sched.Pair) int) ([]rckskel.Job, error) {
	jobs := make([]rckskel.Job, len(pairs))
	for k, p := range pairs {
		b := bytes(p)
		if b < 1 {
			return nil, fmt.Errorf("farm: pair (%d,%d): %w (sized %d)", p.I, p.J, rckskel.ErrJobBytes, b)
		}
		jobs[k] = rckskel.Job{ID: idBase + k, Payload: p, Bytes: b}
	}
	return jobs, nil
}

// Sweep runs one farm execution per slave count and collects the
// results in order, stopping at the first error — the shared shape of
// the paper's Experiment II sweeps (core and dist).
func Sweep[R any](slaveCounts []int, run func(slaves int) (R, error)) ([]R, error) {
	out := make([]R, 0, len(slaveCounts))
	for _, n := range slaveCounts {
		r, err := run(n)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}
