package farm

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Sweep runs one farm execution per point (a slave or chip count) and
// returns the results in point order — the shared shape of the paper's
// Experiment II sweeps (core, dist, the rckalign CLI). Each execution
// owns its engine, so the points run on up to GOMAXPROCS goroutines
// unless shared says run writes to something common to them all — a
// Trace, Metrics registry or Collect hook, which are ordered and not safe
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
