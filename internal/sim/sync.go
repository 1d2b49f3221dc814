package sim

import "math"

// fifo is a first-in-first-out queue that keeps its backing array: a
// steady push/pop cycle allocates nothing, where re-slicing the head off
// a plain slice gives the capacity away and reallocates on a later push.
type fifo[T any] struct {
	items []T
	head  int
}

func (f *fifo[T]) len() int { return len(f.items) - f.head }

func (f *fifo[T]) push(v T) { f.items = append(f.items, v) }

// front returns the oldest item in place.
func (f *fifo[T]) front() *T { return &f.items[f.head] }

func (f *fifo[T]) pop() T {
	v := f.items[f.head]
	var zero T
	f.items[f.head] = zero
	f.head++
	switch {
	case f.head == len(f.items):
		f.items, f.head = f.items[:0], 0
	case f.head >= 32 && 2*f.head >= len(f.items):
		// A queue that never quite drains must not grow with every item
		// that ever passed through it.
		n := copy(f.items, f.items[f.head:])
		clear(f.items[n:])
		f.items, f.head = f.items[:n], 0
	}
	return v
}

// drain removes and returns everything queued.
func (f *fifo[T]) drain() []T {
	out := f.items[f.head:]
	f.items, f.head = nil, 0
	return out
}

// waiter is one process parked in a receive, a queue get or a latch
// wait, from when it blocks until it has read the outcome.
type waiter struct {
	p *Process
	v any
	// fulfilled is set when a sender, a Put or the latch's Set released
	// the waiter; cancelled when a timeout or abort latch claimed it
	// first. A waiter has exactly one of the two outcomes.
	fulfilled bool
	cancelled bool
	// timed marks a waiter a scheduled cancellation refers to, possibly
	// long after the wait is over.
	timed bool
}

// newWaiter takes a wait record for p from the engine's free list.
func (e *Engine) newWaiter(p *Process) *waiter {
	n := len(e.freeWaiters)
	if n == 0 {
		return &waiter{p: p}
	}
	w := e.freeWaiters[n-1]
	e.freeWaiters = e.freeWaiters[:n-1]
	w.p = p
	return w
}

// cancel abandons a still-pending wait and wakes its process.
func (w *waiter) cancel() {
	if w.fulfilled || w.cancelled || w.p.dead() {
		return
	}
	w.cancelled = true
	w.p.unblock()
}

// cancelAfter schedules cancel in d seconds.
func (w *waiter) cancelAfter(d float64) {
	w.timed = true
	w.p.e.After(d, w.cancel)
}

// outcome reads the result of a wait once its process has resumed:
// (value, true) when fulfilled, (nil, false) when cancelled. A fulfilled
// waiter left its primitive's list when it was matched, so unless a
// cancellation is still scheduled nothing refers to it any more and it
// goes back to the free list; a cancelled one stays behind in that list
// (skipped lazily) and is left to the collector.
func (w *waiter) outcome() (any, bool) {
	v, ok := w.v, !w.cancelled
	if ok && !w.timed {
		e := w.p.e
		*w = waiter{}
		e.freeWaiters = append(e.freeWaiters, w)
	}
	return v, ok
}

// Chan is a rendezvous (unbuffered) channel between simulated processes:
// Send blocks until a matching Recv and vice versa, both resuming at the
// rendezvous time. Waiters are served FIFO, so behaviour is deterministic.
// Waiters belonging to killed processes are skipped lazily, and receives
// can carry a timeout or be bounded by a latch (fault-tolerant protocols).
type Chan struct {
	name      string
	senders   fifo[sendReq]
	receivers fifo[*waiter]
}

type sendReq struct {
	p *Process
	v any
}

// NewChan returns an empty rendezvous channel.
func NewChan(name string) *Chan { return &Chan{name: name} }

// liveSender drops dead senders off the head and reports whether a live
// one is waiting there.
func (c *Chan) liveSender() bool {
	for c.senders.len() > 0 {
		if !c.senders.front().p.dead() {
			return true
		}
		c.senders.pop()
	}
	return false
}

// liveReceiver drops dead or cancelled receivers off the head and
// reports whether a live one is waiting there.
func (c *Chan) liveReceiver() bool {
	for c.receivers.len() > 0 {
		if r := *c.receivers.front(); !r.p.dead() && !r.cancelled {
			return true
		}
		c.receivers.pop()
	}
	return false
}

// Send delivers v to a receiver, blocking p until one arrives.
func (c *Chan) Send(p *Process, v any) {
	if c.liveReceiver() {
		r := c.receivers.pop()
		r.v = v
		r.fulfilled = true
		r.p.unblock()
		return
	}
	c.senders.push(sendReq{p: p, v: v})
	p.block("send:", c.name)
}

// Recv returns the next value, blocking p until a sender arrives.
func (c *Chan) Recv(p *Process) any {
	v, _ := c.recv(p, math.Inf(1), nil)
	return v
}

// RecvTimeout is Recv with a deadline: it returns (value, true) on a
// rendezvous within d seconds, else (nil, false) at the deadline.
func (c *Chan) RecvTimeout(p *Process, d float64) (any, bool) {
	return c.recv(p, d, nil)
}

// RecvOrLatch is Recv bounded by a latch: it returns (value, true) on a
// rendezvous, or (nil, false) l.Grace seconds after l fires with no
// rendezvous yet (immediately, by default).
func (c *Chan) RecvOrLatch(p *Process, l *Latch) (any, bool) {
	if l.set {
		return c.recv(p, l.Grace, nil)
	}
	return c.recv(p, math.Inf(1), l)
}

// recv implements the receive variants: a plain receive (d = +Inf,
// l = nil), a deadline, or an unset latch bounding the wait.
func (c *Chan) recv(p *Process, d float64, l *Latch) (any, bool) {
	if c.liveSender() {
		s := c.senders.pop()
		s.p.unblock()
		return s.v, true
	}
	if d <= 0 {
		return nil, false
	}
	req := p.e.newWaiter(p)
	c.receivers.push(req)
	if !math.IsInf(d, 1) {
		req.cancelAfter(d)
	}
	if l != nil {
		l.aborts = append(l.aborts, req)
	}
	p.block("recv:", c.name)
	if l != nil {
		l.drop(req)
	}
	return req.outcome()
}

// TrySend delivers v if a receiver is already waiting and reports whether
// it did; it never blocks.
func (c *Chan) TrySend(p *Process, v any) bool {
	if !c.liveReceiver() {
		return false
	}
	c.Send(p, v)
	return true
}

// Pending reports waiting senders (>0) or receivers (<0); 0 = idle.
// Dead waiters are not counted.
func (c *Chan) Pending() int {
	if c.liveSender() {
		return c.senders.len()
	}
	if c.liveReceiver() {
		return -c.receivers.len()
	}
	return 0
}

// Latch is a one-shot completion flag: Wait blocks until Set has been
// called (immediately returning if it already was). Multiple waiters
// are all released at the Set time. Receives bounded by the latch
// (Chan.RecvOrLatch) are registered only while they block. A Latch with
// only Name set is ready to use, so a per-message latch can live inside
// the message instead of being allocated beside it; it must not be
// copied after first use.
type Latch struct {
	// Name identifies the latch in deadlock reports.
	Name string
	// Grace is how long a receive bounded by the latch outlives Set
	// (0 = aborted at Set, +Inf = never abandoned: Set then neither wakes
	// the receiver nor schedules an event).
	Grace float64

	set     bool
	waiting []*waiter
	aborts  []*waiter
}

// NewLatch returns an unset latch.
func NewLatch(name string) *Latch { return &Latch{Name: name} }

// Set releases the latch; all current and future waiters proceed.
// Calling Set twice is a no-op.
func (l *Latch) Set() {
	if l.set {
		return
	}
	l.set = true
	for _, w := range l.waiting {
		if w.cancelled || w.p.dead() {
			continue
		}
		w.fulfilled = true
		w.p.unblock()
	}
	l.waiting = nil
	for _, r := range l.aborts {
		if l.Grace <= 0 {
			r.cancel()
		} else if !math.IsInf(l.Grace, 1) {
			r.cancelAfter(l.Grace)
		}
	}
	l.aborts = nil
}

// drop forgets a bounded receive that has completed, keeping the order
// of the rest (it decides the wake-up order at Set).
func (l *Latch) drop(r *waiter) {
	for i, x := range l.aborts {
		if x == r {
			l.aborts = append(l.aborts[:i], l.aborts[i+1:]...)
			return
		}
	}
}

// IsSet reports whether the latch has fired.
func (l *Latch) IsSet() bool { return l.set }

// WaitTimeout blocks p until the latch fires (true) or d seconds pass
// (false); d = +Inf waits without a timer.
func (l *Latch) WaitTimeout(p *Process, d float64) bool {
	if l.set {
		return true
	}
	w := p.e.newWaiter(p)
	l.waiting = append(l.waiting, w)
	if !math.IsInf(d, 1) {
		w.cancelAfter(d)
	}
	p.block("latch:", l.Name)
	_, ok := w.outcome()
	return ok
}

// Queue is an unbounded asynchronous FIFO between simulated processes:
// Put never blocks (the sender proceeds immediately, like raising a flag
// in its own MPB) and Get blocks until an item is available. Items are
// delivered in Put order, so behaviour is deterministic.
type Queue struct {
	name    string
	items   fifo[any]
	getters fifo[*waiter]
}

// NewQueue returns an empty queue.
func NewQueue(name string) *Queue { return &Queue{name: name} }

// Put appends v; if a getter is parked, it receives v at the current
// time. Put is callable from any process or callback context.
func (q *Queue) Put(v any) {
	for q.getters.len() > 0 {
		r := q.getters.pop()
		if r.p.dead() || r.cancelled {
			continue
		}
		r.v = v
		r.fulfilled = true
		r.p.unblock()
		return
	}
	q.items.push(v)
}

// Get returns the next item, blocking p until one is Put.
func (q *Queue) Get(p *Process) any {
	v, _ := q.GetTimeout(p, math.Inf(1))
	return v
}

// GetTimeout is Get with a deadline: (item, true) when one arrives
// within d seconds, else (nil, false).
func (q *Queue) GetTimeout(p *Process, d float64) (any, bool) {
	if q.items.len() > 0 {
		return q.items.pop(), true
	}
	req := p.e.newWaiter(p)
	q.getters.push(req)
	if !math.IsInf(d, 1) {
		req.cancelAfter(d)
	}
	p.block("queue:", q.name)
	return req.outcome()
}

// Len returns the number of queued (undelivered) items.
func (q *Queue) Len() int { return q.items.len() }

// Drain removes and returns all queued items.
func (q *Queue) Drain() []any { return q.items.drain() }

// Barrier blocks processes until n of them have arrived, then releases
// all of them at the arrival time of the last.
type Barrier struct {
	name    string
	n       int
	waiting []*Process
}

// NewBarrier returns a barrier for n participants (n >= 1).
func NewBarrier(name string, n int) *Barrier {
	if n < 1 {
		n = 1
	}
	return &Barrier{name: name, n: n}
}

// Wait blocks p until all n participants have called Wait.
func (b *Barrier) Wait(p *Process) {
	if len(b.waiting)+1 >= b.n {
		for _, q := range b.waiting {
			q.unblock()
		}
		b.waiting = nil
		return
	}
	b.waiting = append(b.waiting, p)
	p.block("barrier:", b.name)
}

// Resource is a counted FIFO resource (disk controller, mesh link, ...):
// Acquire blocks while all slots are busy; Release hands a slot to the
// longest waiter. Killed waiters are skipped when a slot frees up.
type Resource struct {
	name     string
	capacity int
	inUse    int
	queue    fifo[*Process]
	// Busy time accounting for utilisation reports: who holds a slot since
	// when (at most capacity entries, so a scan beats hashing).
	holders   []holding
	busyTotal float64
}

type holding struct {
	p     *Process
	since float64
}

// NewResource returns a resource with the given slot count (>= 1).
func NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{name: name, capacity: capacity}
}

// hold starts p's busy interval.
func (r *Resource) hold(p *Process) {
	r.holders = append(r.holders, holding{p, p.Now()})
}

// Acquire takes a slot, blocking until one frees up.
func (r *Resource) Acquire(p *Process) {
	if r.inUse < r.capacity {
		r.inUse++
		r.hold(p)
		return
	}
	r.queue.push(p)
	p.block("acquire:", r.name)
	// Woken by Release, which already transferred the slot to us.
	r.hold(p)
}

// Release frees p's slot; the longest live waiter (if any) inherits it.
func (r *Resource) Release(p *Process) {
	for i, h := range r.holders {
		if h.p == p {
			r.busyTotal += p.Now() - h.since
			last := len(r.holders) - 1
			r.holders[i] = r.holders[last]
			r.holders = r.holders[:last]
			break
		}
	}
	for r.queue.len() > 0 {
		next := r.queue.pop()
		if next.dead() {
			continue
		}
		next.unblock()
		return
	}
	r.inUse--
}

// Use acquires the resource, holds it for d simulated seconds, and
// releases it.
func (r *Resource) Use(p *Process, d float64) {
	r.Acquire(p)
	p.Wait(d)
	r.Release(p)
}

// BusySeconds returns the total slot-seconds consumed so far (completed
// holds only).
func (r *Resource) BusySeconds() float64 { return r.busyTotal }
