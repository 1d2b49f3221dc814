// Package pairstore is a deterministic, memoized store of pairwise
// comparison results evaluated natively on the host. Pair results are
// pure functions of the two structures and the kernel parameters, so
// each is computed once — on all available host cores — and shared by
// every later lookup. A Store has four methods: Get (single-flight
// lookup that reports hit or miss), Probe (non-blocking read of a
// resident value), Prefetch (evaluate a key list on the worker pool and
// return its values) and StatsSnapshot (the hit/miss accounting).
//
// Determinism contract: the store never influences *what* a simulation
// computes, only *when the host computes it*. A stored value must come
// from a pure compute function (same key -> same value, bit for bit);
// the simulators keep charging simulated time from the operation
// counts embedded in the stored result, so host parallelism moves
// wall-clock time and nothing else. See DESIGN.md.
package pairstore

import (
	"runtime"
	"sync"
)

// Key identifies one memoized pair evaluation: the dataset, the kernel
// (algorithm plus its parameters, e.g. tmalign.Options.Key()), and the
// two structure IDs in argument order. Order is significant — kernels
// are not assumed symmetric.
type Key struct {
	Dataset string
	Kernel  string
	A, B    string
}

// entry is one memoized slot; value is valid once ready is closed.
type entry struct {
	ready chan struct{}
	value any
}

// Store memoizes pair results with single-flight semantics: every key
// is computed exactly once, concurrent requesters wait for the first
// computation. All methods are safe for concurrent use.
type Store struct {
	workers int

	mu      sync.Mutex
	entries map[Key]*entry
	// hits counts lookups answered from an existing entry (including
	// waits on an in-flight computation); misses counts lookups that ran
	// the compute function.
	hits, misses int64
}

// New builds a store whose Prefetch fans out over the given number of
// host worker goroutines (<= 0 selects GOMAXPROCS). A worker count of 1
// keeps all evaluation serial — the "host parallelism off" setting —
// while still memoizing.
func New(workers int) *Store {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Store{workers: workers, entries: map[Key]*entry{}}
}

// StatsSnapshot is a self-describing view of the store's effectiveness:
// the raw hit/miss counts plus the derived hit rate and the number of
// resident entries, captured atomically.
type StatsSnapshot struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// HitRate is Hits / (Hits + Misses); 0 when the store is unused.
	HitRate float64 `json:"hit_rate"`
	// Entries is the number of memoized entries, including in-flight
	// computations.
	Entries int `json:"entries"`
}

// StatsSnapshot captures the hit/miss counters, the derived hit rate
// and the entry count under one lock acquisition, so concurrent readers
// (a server's /statsz handler) see a consistent view.
func (s *Store) StatsSnapshot() StatsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := StatsSnapshot{Hits: s.hits, Misses: s.misses, Entries: len(s.entries)}
	if total := snap.Hits + snap.Misses; total > 0 {
		snap.HitRate = float64(snap.Hits) / float64(total)
	}
	return snap
}

// Get returns the memoized value for k, computing it with compute on
// the calling goroutine if no other caller has. Concurrent Gets of the
// same key block until the first computation finishes and then share
// its value. compute must be pure. hit is true when the value came from
// an existing entry (including waiting on another caller's in-flight
// computation) and false when this call ran compute; a request-tracing
// layer uses it to attribute each served pair to a memo hit or miss.
func (s *Store) Get(k Key, compute func() any) (v any, hit bool) {
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		s.hits++
		s.mu.Unlock()
		<-e.ready
		return e.value, true
	}
	e := &entry{ready: make(chan struct{})}
	s.entries[k] = e
	s.misses++
	s.mu.Unlock()

	e.value = compute()
	close(e.ready)
	return e.value, false
}

// Probe returns k's value only when it is resident: the entry exists
// and its computation has finished. It counts a hit, never computes and
// never waits — an absent key and one still in flight both report
// ok=false and touch no counter, so a caller that follows a failed
// probe with Get counts each lookup once. This is the serving fast
// path: a resident pair is answered without a trip through the request
// coalescer.
func (s *Store) Probe(k Key) (v any, ok bool) {
	s.mu.Lock()
	e := s.entries[k]
	if e != nil {
		select {
		case <-e.ready:
			s.hits++
			ok = true
		default:
		}
	}
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	return e.value, true
}

// Prefetch evaluates all keys on the store's worker pool, memoizes the
// results and returns them, out[i] the value of keys[i]; compute(i)
// must return that value. Each key is one Get: keys already stored (or
// in flight from another caller, or listed earlier in the same call)
// are shared, not recomputed, and count as hits. On a nil store
// Prefetch evaluates every key serially and memoizes nothing.
func (s *Store) Prefetch(keys []Key, compute func(i int) any) []any {
	out := make([]any, len(keys))
	if s == nil {
		for i := range keys {
			out[i] = compute(i)
		}
		return out
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < min(s.workers, len(keys)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				out[i], _ = s.Get(keys[i], func() any { return compute(i) })
			}
		}()
	}
	for i := range keys {
		work <- i
	}
	close(work)
	wg.Wait()
	return out
}
