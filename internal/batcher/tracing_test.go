package batcher

import (
	"sync"
	"testing"
	"time"
)

// TestResultTracingFields pins the per-result tracing metadata: worker
// index within range, enqueue timestamp set, and an admission-time
// queue depth that counts the item itself.
func TestResultTracingFields(t *testing.T) {
	e := &echoRun{}
	b, err := New(Config{BatchSize: 2, MaxWait: time.Millisecond, Workers: 3}, e.run)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	res, err := b.SubmitAll([]int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Worker < 0 || r.Worker >= 3 {
			t.Errorf("result %d worker = %d, want 0..2", i, r.Worker)
		}
		if r.EnqueuedAt.IsZero() {
			t.Errorf("result %d has zero EnqueuedAt", i)
		}
		if r.QueueDepth < 1 {
			t.Errorf("result %d queue depth = %d, want >= 1 (includes self)", i, r.QueueDepth)
		}
	}
}

// TestPeakPendingHighWater pins Stats.PeakPending: it reaches the burst
// size when submissions pile up behind a slow run, and never falls.
func TestPeakPendingHighWater(t *testing.T) {
	block := make(chan struct{})
	slow := func(items []int) ([]int, error) {
		<-block
		return make([]int, len(items)), nil
	}
	b, err := New(Config{BatchSize: 1, MaxWait: time.Millisecond}, slow)
	if err != nil {
		t.Fatal(err)
	}
	const burst = 5
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			b.Submit(v)
		}(i)
	}
	// Wait for every submission to be admitted, then release the runs.
	for b.Stats().Enqueued < burst {
		time.Sleep(time.Millisecond)
	}
	peakDuring := b.Stats().PeakPending
	close(block)
	wg.Wait()
	b.Close()
	st := b.Stats()
	if peakDuring < 2 {
		t.Errorf("peak pending during burst = %d, want >= 2", peakDuring)
	}
	if st.PeakPending < peakDuring {
		t.Errorf("peak fell from %d to %d", peakDuring, st.PeakPending)
	}
	if st.Pending != 0 {
		t.Errorf("final pending = %d, want 0 after drain", st.Pending)
	}
}
