package farm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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

// Sweep runs one farm execution per point (a slave or chip count) and
// returns the results in point order — the shared shape of the paper's
// Experiment II sweeps (core, dist, the rckalign CLI). Each execution
// owns its engine, so the points run on up to GOMAXPROCS goroutines
// unless shared says run writes to something common to them all — a
// Trace, Metrics registry or Collector, which are ordered and not safe
// for concurrent use — and then they run one after another. The
// outcome does not depend on which: on failure it is the error of the
// earliest failing point and the results of the points before it.
func Sweep[R any](points []int, shared bool, run func(point int) (R, error)) ([]R, error) {
	workers := min(runtime.GOMAXPROCS(0), len(points))
	if shared {
		workers = 1
	}
	out := make([]R, len(points))
	errs := make([]error, len(points))
	var next atomic.Int64
	var failed atomic.Bool
	// Points are claimed in order, so when one fails every earlier point
	// has been claimed and will finish; later ones need not start.
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= len(points) {
				return
			}
			if out[i], errs[i] = run(points[i]); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return out[:i], err
		}
	}
	return out, nil
}
