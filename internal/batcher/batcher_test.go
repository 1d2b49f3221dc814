package batcher

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"rckalign/internal/metrics"
)

// echoRun doubles each item, recording every batch it saw.
type echoRun struct {
	mu      sync.Mutex
	batches [][]int
}

func (e *echoRun) run(items []int) ([]int, error) {
	e.mu.Lock()
	e.batches = append(e.batches, append([]int(nil), items...))
	e.mu.Unlock()
	out := make([]int, len(items))
	for i, v := range items {
		out[i] = 2 * v
	}
	return out, nil
}

func TestSizeTriggerFlush(t *testing.T) {
	e := &echoRun{}
	b, err := New(Config{BatchSize: 4, MaxWait: time.Hour}, e.run)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	items := []int{1, 2, 3, 4, 5, 6, 7, 8}
	res, err := b.SubmitAll(items)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		if r.Value != 2*items[i] {
			t.Errorf("item %d: value %d, want %d", i, r.Value, 2*items[i])
		}
		if r.BatchSize != 4 {
			t.Errorf("item %d: batch size %d, want 4", i, r.BatchSize)
		}
		if r.Trigger != TriggerSize {
			t.Errorf("item %d: trigger %v, want size", i, r.Trigger)
		}
	}
	st := b.Stats()
	if st.Batches != 2 || st.SizeFlushes != 2 {
		t.Errorf("stats %+v, want 2 batches, 2 size flushes", st)
	}
	if st.Enqueued != 8 || st.Completed != 8 || st.Pending != 0 {
		t.Errorf("stats %+v, want 8 enqueued, 8 completed, 0 pending", st)
	}
	if st.MaxBatch != 4 {
		t.Errorf("max batch %d, want 4", st.MaxBatch)
	}
	// Both batches land in CountBuckets' (2, 4] bucket.
	if h := st.BatchSizes; h.Count != 2 || h.Sum != 8 || !slices.Equal(h.Buckets, metrics.CountBuckets) || h.Counts[2] != 2 {
		t.Errorf("batch sizes %+v, want two batches of 4", h)
	}
}

func TestTimerTriggerFlush(t *testing.T) {
	e := &echoRun{}
	b, err := New(Config{BatchSize: 100, MaxWait: 10 * time.Millisecond}, e.run)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	res, err := b.SubmitAll([]int{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Trigger != TriggerTimer {
			t.Errorf("item %d: trigger %v, want timer", i, r.Trigger)
		}
		if r.BatchSize != 3 {
			t.Errorf("item %d: batch size %d, want 3 (partial flush)", i, r.BatchSize)
		}
	}
	st := b.Stats()
	if st.TimerFlushes != 1 || st.Batches != 1 {
		t.Errorf("stats %+v, want exactly one timer flush", st)
	}
}

func TestCloseDrainsPartialBatch(t *testing.T) {
	e := &echoRun{}
	b, err := New(Config{BatchSize: 100, MaxWait: time.Hour}, e.run)
	if err != nil {
		t.Fatal(err)
	}
	type resErr struct {
		res []Result[int]
		err error
	}
	done := make(chan resErr, 1)
	go func() {
		res, err := b.SubmitAll([]int{7, 9})
		done <- resErr{res, err}
	}()
	// Wait until both items are inside the batcher, then close: the only
	// way they can complete is the close-drain flush.
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().Enqueued < 2 {
		if time.Now().After(deadline) {
			t.Fatal("items never enqueued")
		}
		time.Sleep(time.Millisecond)
	}
	b.Close()
	re := <-done
	if re.err != nil {
		t.Fatal(re.err)
	}
	for i, r := range re.res {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		if r.Trigger != TriggerClose {
			t.Errorf("item %d: trigger %v, want close", i, r.Trigger)
		}
	}
	st := b.Stats()
	if st.CloseFlushes != 1 {
		t.Errorf("stats %+v, want one close flush", st)
	}
	if _, err := b.Submit(1); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close: %v, want ErrClosed", err)
	}
	if _, err := b.SubmitAll([]int{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitAll after Close: %v, want ErrClosed", err)
	}
	b.Close() // idempotent
}

func TestTimingBreakdown(t *testing.T) {
	slow := func(items []int) ([]int, error) {
		time.Sleep(5 * time.Millisecond)
		return make([]int, len(items)), nil
	}
	b, err := New(Config{BatchSize: 1, MaxWait: time.Millisecond}, slow)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	r, err := b.Submit(1)
	if err != nil {
		t.Fatal(err)
	}
	tm := r.Timing
	if tm.QueueWait < 0 || tm.Assembly < 0 || tm.Compute < 0 || tm.Total < 0 {
		t.Fatalf("negative timing component: %+v", tm)
	}
	if tm.Compute < 5*time.Millisecond {
		t.Errorf("compute %v, want >= 5ms (the run sleep)", tm.Compute)
	}
	if tm.Total < tm.Compute {
		t.Errorf("total %v below compute %v", tm.Total, tm.Compute)
	}
	sum := tm.QueueWait + tm.Assembly + tm.Compute
	if diff := tm.Total - sum; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("total %v does not decompose into %v + %v + %v", tm.Total, tm.QueueWait, tm.Assembly, tm.Compute)
	}
}

func TestRunErrorPropagatesToEveryItem(t *testing.T) {
	boom := errors.New("boom")
	b, err := New(Config{BatchSize: 2, MaxWait: time.Millisecond}, func(items []int) ([]int, error) {
		return nil, boom
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	res, err := b.SubmitAll([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !errors.Is(r.Err, boom) {
			t.Errorf("item %d: err %v, want boom", i, r.Err)
		}
	}
}

func TestRunLengthMismatchIsAnError(t *testing.T) {
	b, err := New(Config{BatchSize: 2, MaxWait: time.Millisecond}, func(items []int) ([]int, error) {
		return []int{1}, nil // wrong length
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	res, err := b.SubmitAll([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err == nil {
			t.Errorf("item %d: no error for a length-mismatched run", i)
		}
	}
}

func TestNilRunRejected(t *testing.T) {
	if _, err := New[int, int](Config{}, nil); err == nil {
		t.Fatal("New accepted a nil run function")
	}
}

func TestConcurrentSubmittersAllAnswered(t *testing.T) {
	e := &echoRun{}
	b, err := New(Config{BatchSize: 8, MaxWait: time.Millisecond, Workers: 4}, e.run)
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				v := c*perClient + i
				r, err := b.Submit(v)
				if err != nil {
					errs <- err
					return
				}
				if r.Err != nil {
					errs <- r.Err
					return
				}
				if r.Value != 2*v {
					errs <- errors.New("wrong value")
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	b.Close()
	st := b.Stats()
	if st.Enqueued != clients*perClient || st.Completed != clients*perClient {
		t.Errorf("stats %+v, want %d enqueued and completed", st, clients*perClient)
	}
	if st.Pending != 0 {
		t.Errorf("pending %d after drain, want 0", st.Pending)
	}
	if h := st.BatchSizes; h.Count != st.Batches || h.Sum != float64(st.Enqueued) {
		t.Errorf("batch sizes count %d, sum %v; want %d batches holding %d items", h.Count, h.Sum, st.Batches, st.Enqueued)
	}
	// Every submitted item appears in exactly one executed batch.
	seen := map[int]int{}
	e.mu.Lock()
	for _, bt := range e.batches {
		for _, v := range bt {
			seen[v]++
		}
	}
	e.mu.Unlock()
	if len(seen) != clients*perClient {
		t.Fatalf("%d distinct items executed, want %d", len(seen), clients*perClient)
	}
	for v, n := range seen {
		if n != 1 {
			t.Errorf("item %d executed %d times", v, n)
		}
	}
}

func TestTriggerString(t *testing.T) {
	for tr, want := range map[Trigger]string{
		TriggerSize: "size", TriggerTimer: "timer", TriggerClose: "close", Trigger(9): "trigger(9)",
	} {
		if got := tr.String(); got != want {
			t.Errorf("Trigger(%d).String() = %q, want %q", int(tr), got, want)
		}
	}
}
