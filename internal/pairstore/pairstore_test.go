package pairstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func key(i int) Key {
	return Key{Dataset: "ds", Kernel: "k", A: fmt.Sprintf("a%d", i), B: fmt.Sprintf("b%d", i)}
}

func TestGetMemoizes(t *testing.T) {
	s := New(4)
	calls := 0
	for i := 0; i < 3; i++ {
		if v, _ := s.Get(key(1), func() any { calls++; return 42 }); v != 42 {
			t.Fatalf("Get = %v, want 42", v)
		}
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	if st := s.StatsSnapshot(); st.Misses != 1 || st.Hits != 2 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss / 2 hits / 1 entry", st)
	}
}

func TestKeyOrderSignificant(t *testing.T) {
	s := New(1)
	s.Get(Key{Dataset: "d", Kernel: "k", A: "x", B: "y"}, func() any { return "xy" })
	if v, _ := s.Get(Key{Dataset: "d", Kernel: "k", A: "y", B: "x"}, func() any { return "yx" }); v != "yx" {
		t.Errorf("reversed key shared the entry: got %v", v)
	}
}

// TestGetSingleFlight: concurrent Gets of one key run compute exactly
// once and all observe its value (exercised under -race).
func TestGetSingleFlight(t *testing.T) {
	s := New(8)
	var calls atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	values := make([]any, 16)
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			values[g], _ = s.Get(key(7), func() any {
				calls.Add(1)
				return "once"
			})
		}()
	}
	close(start)
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times, want 1", calls.Load())
	}
	for g, v := range values {
		if v != "once" {
			t.Errorf("goroutine %d got %v", g, v)
		}
	}
}

// TestPrefetchParallelDeterministic: the prefetched values are
// identical regardless of worker count, and every key is computed
// exactly once even when Prefetch races with lazy Gets.
func TestPrefetchParallelDeterministic(t *testing.T) {
	const n = 100
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = key(i)
	}
	for _, workers := range []int{1, 8} {
		s := New(workers)
		var computes atomic.Int64
		compute := func(i int) any { computes.Add(1); return i * i }
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Prefetch(keys, compute)
		}()
		// Lazy consumers racing the prefetch must see the same values.
		for i := 0; i < n; i += 7 {
			i := i
			if v, _ := s.Get(keys[i], func() any { return compute(i) }); v != i*i {
				t.Errorf("workers=%d key %d = %v, want %d", workers, i, v, i*i)
			}
		}
		wg.Wait()
		if computes.Load() != n {
			t.Errorf("workers=%d: %d computes, want %d", workers, computes.Load(), n)
		}
		if e := s.StatsSnapshot().Entries; e != n {
			t.Errorf("workers=%d: %d entries, want %d", workers, e, n)
		}
		for i := range keys {
			if v, _ := s.Get(keys[i], func() any { t.Fatal("recompute"); return nil }); v != i*i {
				t.Errorf("workers=%d: key %d = %v after prefetch", workers, i, v)
			}
		}
	}
}

func TestWorkersDefault(t *testing.T) {
	if w := New(0).workers; w < 1 {
		t.Errorf("New(0) has %d prefetch workers, want >= 1 (GOMAXPROCS)", w)
	}
	if w := New(3).workers; w != 3 {
		t.Errorf("New(3) has %d prefetch workers, want 3", w)
	}
}

// TestPrefetchReturns pins what Prefetch hands back: every key's value,
// index-aligned, at any worker count and on a nil store. Of the keys
// below, two are resident before the call and one is listed twice; a
// store returns the resident values as hits without computing them and
// computes the twice-listed key once (its second slot is a hit), while
// a nil store computes every slot and memoizes nothing.
func TestPrefetchReturns(t *testing.T) {
	const n = 40
	keys := make([]Key, 0, n+1)
	for i := 0; i < n; i++ {
		keys = append(keys, key(i))
	}
	keys = append(keys, key(3))
	value := func(k Key) any { return "v" + k.A }
	for _, tc := range []struct {
		name  string
		store *Store
	}{
		{"nil store", nil},
		{"1 worker", New(1)},
		{"2 workers", New(2)},
		{"8 workers", New(8)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resident := map[Key]bool{}
			if tc.store != nil {
				for _, k := range keys[:2] {
					tc.store.Get(k, func() any { return value(k) })
					resident[k] = true
				}
			}
			var mu sync.Mutex
			computes := map[Key]int{}
			out := tc.store.Prefetch(keys, func(i int) any {
				mu.Lock()
				computes[keys[i]]++
				mu.Unlock()
				return value(keys[i])
			})
			if len(out) != len(keys) {
				t.Fatalf("Prefetch returned %d values for %d keys", len(out), len(keys))
			}
			for i, k := range keys {
				if out[i] != value(k) {
					t.Errorf("out[%d] = %v, want %v", i, out[i], value(k))
				}
			}
			for i := 0; i < n; i++ {
				want := 1
				switch {
				case resident[key(i)]:
					want = 0
				case i == 3 && tc.store == nil:
					want = 2 // listed twice, memoized nowhere
				}
				if got := computes[key(i)]; got != want {
					t.Errorf("key %d computed %d times, want %d", i, got, want)
				}
			}
			if tc.store == nil {
				return
			}
			// Hits: the two resident keys and the second listing of key 3.
			if st := tc.store.StatsSnapshot(); st.Hits != 3 || st.Misses != n || st.Entries != n {
				t.Errorf("stats = %+v, want 3 hits / %d misses / %d entries", st, n, n)
			}
		})
	}
}

func TestStatsSnapshot(t *testing.T) {
	s := New(2)
	if snap := s.StatsSnapshot(); snap.HitRate != 0 {
		t.Errorf("unused store hit rate = %v, want 0", snap.HitRate)
	}
	s.Get(key(1), func() any { return 1 })
	s.Get(key(1), func() any { return 1 })
	s.Get(key(1), func() any { return 1 })
	s.Get(key(2), func() any { return 2 })
	snap := s.StatsSnapshot()
	if snap.Hits != 2 || snap.Misses != 2 || snap.Entries != 2 {
		t.Errorf("snapshot = %+v, want 2 hits / 2 misses / 2 entries", snap)
	}
	if snap.HitRate != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", snap.HitRate)
	}
}

// TestStatsSnapshotConcurrent reads snapshots while Gets are in flight;
// the race detector asserts the locking.
func TestStatsSnapshotConcurrent(t *testing.T) {
	s := New(4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Get(key(i%10), func() any { return i })
				_ = s.StatsSnapshot()
			}
		}(w)
	}
	wg.Wait()
	snap := s.StatsSnapshot()
	if snap.Entries != 10 || snap.Hits+snap.Misses != 400 {
		t.Errorf("snapshot = %+v, want 10 entries and 400 gets", snap)
	}
}

// TestGetOutcome pins the memoization outcome Get reports: false on
// first computation, true on every later read — including a reader that
// waited on another caller's in-flight compute.
func TestGetOutcome(t *testing.T) {
	s := New(2)
	v, hit := s.Get(key(9), func() any { return 7 })
	if v != 7 || hit {
		t.Fatalf("first Get = (%v, %v), want (7, false)", v, hit)
	}
	v, hit = s.Get(key(9), func() any { t.Fatal("recomputed"); return nil })
	if v != 7 || !hit {
		t.Fatalf("second Get = (%v, %v), want (7, true)", v, hit)
	}

	// A waiter on an in-flight compute counts as a hit.
	begun := make(chan struct{})
	release := make(chan struct{})
	done := make(chan bool, 1)
	go s.Get(key(10), func() any { close(begun); <-release; return 1 })
	<-begun
	go func() {
		_, hit := s.Get(key(10), func() any { return 2 })
		done <- hit
	}()
	close(release)
	if hit := <-done; !hit {
		t.Error("waiter on in-flight compute reported a miss")
	}
}

// TestProbe pins the non-blocking residency probe: it answers only a
// finished entry, counts that as a hit, and otherwise — absent key or
// in-flight computation — reports not-resident without computing,
// waiting or touching a counter.
func TestProbe(t *testing.T) {
	s := New(2)
	if v, ok := s.Probe(key(1)); ok || v != nil {
		t.Fatalf("Probe of an absent key = (%v, %v), want (nil, false)", v, ok)
	}
	if st := s.StatsSnapshot(); st != (StatsSnapshot{}) {
		t.Errorf("failed probe left a trace: %+v", st)
	}

	// In flight: the entry exists but its value is not ready. Probe must
	// return at once (the compute is parked until release).
	begun := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Get(key(2), func() any { close(begun); <-release; return "slow" })
	}()
	<-begun
	if v, ok := s.Probe(key(2)); ok || v != nil {
		t.Errorf("Probe of an in-flight key = (%v, %v), want (nil, false)", v, ok)
	}
	if st := s.StatsSnapshot(); st.Hits != 0 || st.Misses != 1 {
		t.Errorf("stats after in-flight probe = %+v, want 0 hits / 1 miss", st)
	}
	close(release)
	<-done

	// Ready: every probe is one hit and never a recompute.
	for i := 1; i <= 3; i++ {
		if v, ok := s.Probe(key(2)); !ok || v != "slow" {
			t.Fatalf("Probe of a ready key = (%v, %v), want (slow, true)", v, ok)
		}
		if st := s.StatsSnapshot(); st.Hits != int64(i) || st.Misses != 1 {
			t.Errorf("stats after %d ready probes = %+v", i, st)
		}
	}

}

// TestProbeRacesGet: probes racing the computation of their key either
// miss or see the finished value, never a half-written one (run with
// -race), and hits + misses stays one count per successful lookup.
func TestProbeRacesGet(t *testing.T) {
	s := New(4)
	var wg sync.WaitGroup
	var probeHits atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if v, ok := s.Probe(key(i)); ok {
					probeHits.Add(1)
					if v != i {
						t.Errorf("Probe(%d) = %v", i, v)
					}
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		i := i
		s.Get(key(i), func() any { return i })
	}
	wg.Wait()
	if st := s.StatsSnapshot(); st.Misses != 50 || st.Hits != probeHits.Load() {
		t.Errorf("stats = %+v, want 50 misses / %d hits", st, probeHits.Load())
	}
}
