// Package batcher implements a generic bounded-queue request coalescer
// for the comparison service: many concurrent callers submit small work
// items, a collector assembles them into batches, and a worker pool
// executes whole batches at once. A batch flushes when it reaches
// BatchSize items, when MaxWait has elapsed since its first item
// arrived, or when the batcher is closed — so bursts amortize into few
// large batches while a lone request still completes within MaxWait.
//
// Every item's response carries a timing breakdown (queue wait, batch
// assembly, compute, total) and the size and flush trigger of the batch
// it rode in, so the service can expose per-request latency anatomy.
//
// The batcher moves work between goroutines but never reorders results:
// run(items) must return one result per item, index-aligned. Whether
// batching is observable in the results is entirely up to run — the
// comparison service keeps it invisible by routing every evaluation
// through the memoized pair store (see DESIGN.md §14).
package batcher

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rckalign/internal/metrics"
)

// ErrClosed is returned by Submit/SubmitAll after Close.
var ErrClosed = errors.New("batcher: closed")

// Trigger identifies what caused a batch to flush.
type Trigger int

const (
	// TriggerSize: the batch reached Config.BatchSize items.
	TriggerSize Trigger = iota
	// TriggerTimer: Config.MaxWait elapsed since the batch's first item.
	TriggerTimer
	// TriggerClose: Close drained a final partial batch.
	TriggerClose
)

// String names the trigger for logs and stats dumps.
func (t Trigger) String() string {
	switch t {
	case TriggerSize:
		return "size"
	case TriggerTimer:
		return "timer"
	case TriggerClose:
		return "close"
	}
	return fmt.Sprintf("trigger(%d)", int(t))
}

// Config tunes a Batcher. The zero value is usable: every field has a
// default (see the field comments).
type Config struct {
	// BatchSize flushes a batch when it holds this many items
	// (default 32; 1 disables coalescing — every item is its own batch).
	BatchSize int
	// MaxWait flushes a non-empty partial batch this long after its
	// first item arrived (default 2ms), bounding the latency a lone
	// request pays for the chance to coalesce.
	MaxWait time.Duration
	// Workers is the number of concurrent batch executors (default 1).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return c
}

// Timing is the latency anatomy of one item's trip through the batcher,
// measured on the host monotonic clock.
type Timing struct {
	// QueueWait is enqueue -> dequeued by the collector (time spent in
	// the bounded submission queue).
	QueueWait time.Duration
	// Assembly is dequeue -> batch execution start (waiting for the
	// flush trigger plus waiting for a free worker).
	Assembly time.Duration
	// Compute is the run() call's duration for the whole batch.
	Compute time.Duration
	// Total is enqueue -> response delivery.
	Total time.Duration
}

// Result is the response delivered for one submitted item.
type Result[R any] struct {
	// Value is run's result for this item (zero when Err is set).
	Value R
	// Err is run's error, shared by every item of the failed batch.
	Err error
	// Timing is this item's latency breakdown.
	Timing Timing
	// BatchSize is the number of items in the batch this item rode in.
	BatchSize int
	// Trigger is what flushed that batch.
	Trigger Trigger
	// Worker is the index (0..Workers-1) of the executor goroutine that
	// ran this item's batch — the "which lane computed me" coordinate a
	// request trace needs for per-worker tracks.
	Worker int
	// EnqueuedAt is the host time the item entered the submission queue,
	// letting a caller place the item's server-side spans on an absolute
	// timeline (e.g. as offsets from process start).
	EnqueuedAt time.Time
	// QueueDepth is the number of pending items at admission, this item
	// included — the congestion the request observed on arrival.
	QueueDepth int64
}

// Stats counts what the batcher has done so far. Pending is the number
// of items submitted whose batch has not finished executing (queue +
// assembling batch + executing batches); PeakPending is its high-water
// mark over the batcher's lifetime. An item moves from Pending to
// Completed just before its result is delivered. BatchSizes is the
// distribution of flushed batch sizes (metrics.CountBuckets), so its
// Count is always Batches. The JSON keys are a server's /statsz ones.
type Stats struct {
	Enqueued     int64                     `json:"enqueued"`
	Completed    int64                     `json:"completed"`
	Pending      int64                     `json:"queue_depth"`
	PeakPending  int64                     `json:"queue_depth_peak"`
	Batches      int64                     `json:"batches"`
	SizeFlushes  int64                     `json:"size_flushes"`
	TimerFlushes int64                     `json:"timer_flushes"`
	CloseFlushes int64                     `json:"close_flushes"`
	MaxBatch     int                       `json:"max_batch"`
	BatchSizes   metrics.HistogramSnapshot `json:"-"`
}

// request is one in-flight item.
type request[T, R any] struct {
	item     T
	resp     chan Result[R]
	enqueued time.Time
	dequeued time.Time
	depth    int64 // Pending at admission, this item included
}

// batch is a flushed group of requests awaiting a worker.
type batch[T, R any] struct {
	reqs    []*request[T, R]
	trigger Trigger
}

// Batcher coalesces items of type T into batches executed by run, which
// must return one R per item, index-aligned. All methods are safe for
// concurrent use.
type Batcher[T, R any] struct {
	cfg Config
	run func([]T) ([]R, error)

	// queue holds four full batches; submitters block when it is full —
	// backpressure, not load shedding.
	queue   chan *request[T, R]
	batches chan batch[T, R]

	mu     sync.Mutex
	closed bool
	stats  Stats
	sizes  *metrics.Histogram // flushed batch sizes, under mu

	submitters    sync.WaitGroup // Submit calls past the closed check
	workers       sync.WaitGroup
	collectorDone chan struct{}
}

// New builds and starts a batcher: one collector goroutine assembling
// batches plus cfg.Workers executor goroutines. run must be non-nil and
// must return exactly one result per input item.
func New[T, R any](cfg Config, run func([]T) ([]R, error)) (*Batcher[T, R], error) {
	if run == nil {
		return nil, errors.New("batcher: nil run function")
	}
	cfg = cfg.withDefaults()
	b := &Batcher[T, R]{
		cfg:           cfg,
		run:           run,
		queue:         make(chan *request[T, R], 4*cfg.BatchSize),
		batches:       make(chan batch[T, R], cfg.Workers),
		sizes:         metrics.NewHistogram(metrics.CountBuckets),
		collectorDone: make(chan struct{}),
	}
	go b.collect()
	b.workers.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go b.worker(w)
	}
	return b, nil
}

// enqueue admits one item, blocking while the queue is full. The
// returned channel receives exactly one Result.
func (b *Batcher[T, R]) enqueue(item T) (chan Result[R], error) {
	r := &request[T, R]{item: item, resp: make(chan Result[R], 1), enqueued: time.Now()}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	b.submitters.Add(1)
	b.stats.Enqueued++
	b.stats.Pending++
	if b.stats.Pending > b.stats.PeakPending {
		b.stats.PeakPending = b.stats.Pending
	}
	r.depth = b.stats.Pending
	b.mu.Unlock()
	b.queue <- r
	b.submitters.Done()
	return r.resp, nil
}

// Submit enqueues one item and blocks until its batch has executed.
func (b *Batcher[T, R]) Submit(item T) (Result[R], error) {
	ch, err := b.enqueue(item)
	if err != nil {
		return Result[R]{}, err
	}
	return <-ch, nil
}

// SubmitAll enqueues every item before waiting on any response, so a
// multi-item request (a one-vs-all query) fills batches instead of
// paying MaxWait per item. Results are index-aligned with items. When
// the batcher closes mid-enqueue it returns ErrClosed; responses for
// the already-enqueued prefix are discarded (their batches still
// execute and their buffered channels are garbage collected).
func (b *Batcher[T, R]) SubmitAll(items []T) ([]Result[R], error) {
	chs := make([]chan Result[R], len(items))
	for i, item := range items {
		ch, err := b.enqueue(item)
		if err != nil {
			return nil, err
		}
		chs[i] = ch
	}
	out := make([]Result[R], len(items))
	for i, ch := range chs {
		out[i] = <-ch
	}
	return out, nil
}

// Stats returns a consistent snapshot of the batcher's counters.
func (b *Batcher[T, R]) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.stats
	st.BatchSizes = b.sizes.Snapshot()
	return st
}

// Close stops admitting new items, flushes the assembling batch, waits
// for every in-flight batch to execute and its responses to be
// delivered, then returns. Safe to call more than once.
func (b *Batcher[T, R]) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.collectorDone
		b.workers.Wait()
		return
	}
	b.closed = true
	b.mu.Unlock()
	b.submitters.Wait() // admitted submitters finish their queue send
	close(b.queue)
	<-b.collectorDone // collector flushed the tail and closed batches
	b.workers.Wait()  // workers delivered every response
}

// collect is the single assembler goroutine: it drains the submission
// queue into a pending batch and flushes on size, timer or close.
func (b *Batcher[T, R]) collect() {
	defer close(b.collectorDone)
	var pending []*request[T, R]
	var timer *time.Timer
	var timerC <-chan time.Time
	stopTimer := func() {
		if timer != nil {
			timer.Stop()
			timer = nil
			timerC = nil
		}
	}
	flush := func(tr Trigger) {
		if len(pending) == 0 {
			return
		}
		stopTimer()
		b.mu.Lock()
		b.stats.Batches++
		switch tr {
		case TriggerSize:
			b.stats.SizeFlushes++
		case TriggerTimer:
			b.stats.TimerFlushes++
		case TriggerClose:
			b.stats.CloseFlushes++
		}
		if len(pending) > b.stats.MaxBatch {
			b.stats.MaxBatch = len(pending)
		}
		b.sizes.Observe(float64(len(pending)))
		b.mu.Unlock()
		b.batches <- batch[T, R]{reqs: pending, trigger: tr}
		pending = nil
	}
	for {
		select {
		case r, ok := <-b.queue:
			if !ok {
				flush(TriggerClose)
				close(b.batches)
				return
			}
			r.dequeued = time.Now()
			pending = append(pending, r)
			if len(pending) == 1 {
				timer = time.NewTimer(b.cfg.MaxWait)
				timerC = timer.C
			}
			if len(pending) >= b.cfg.BatchSize {
				flush(TriggerSize)
			}
		case <-timerC:
			timer = nil
			timerC = nil
			flush(TriggerTimer)
		}
	}
}

// worker executes flushed batches and delivers per-item results. id is
// the worker's index, reported in every Result it delivers.
func (b *Batcher[T, R]) worker(id int) {
	defer b.workers.Done()
	for bt := range b.batches {
		start := time.Now()
		items := make([]T, len(bt.reqs))
		for i, r := range bt.reqs {
			items[i] = r.item
		}
		vals, err := b.run(items)
		if err == nil && len(vals) != len(items) {
			err = fmt.Errorf("batcher: run returned %d results for %d items", len(vals), len(items))
		}
		done := time.Now()
		// Count the batch before delivering it, so a caller holding its
		// result never reads Stats that do not include it yet.
		b.mu.Lock()
		b.stats.Completed += int64(len(bt.reqs))
		b.stats.Pending -= int64(len(bt.reqs))
		b.mu.Unlock()
		for i, r := range bt.reqs {
			res := Result[R]{
				BatchSize:  len(bt.reqs),
				Trigger:    bt.trigger,
				Worker:     id,
				EnqueuedAt: r.enqueued,
				QueueDepth: r.depth,
				Timing: Timing{
					QueueWait: r.dequeued.Sub(r.enqueued),
					Assembly:  start.Sub(r.dequeued),
					Compute:   done.Sub(start),
					Total:     done.Sub(r.enqueued),
				},
			}
			if err != nil {
				res.Err = err
			} else {
				res.Value = vals[i]
			}
			r.resp <- res
		}
	}
}
