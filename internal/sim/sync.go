package sim

import "math"

// Chan is a rendezvous (unbuffered) channel between simulated processes:
// Send blocks until a matching Recv and vice versa, both resuming at the
// rendezvous time. Waiters are served FIFO, so behaviour is deterministic.
// Waiters belonging to killed processes are skipped lazily, and receives
// can carry a timeout or be bounded by a latch (fault-tolerant protocols).
type Chan struct {
	name      string
	senders   []*sendReq
	receivers []*recvReq
}

type sendReq struct {
	p *Process
	v any
}

type recvReq struct {
	p *Process
	v any
	// fulfilled is set when a sender matches this request; cancelled when
	// a timeout or abort latch claimed it first. A request has exactly
	// one of the two outcomes.
	fulfilled bool
	cancelled bool
}

// cancel abandons a still-pending request and wakes its process.
func (r *recvReq) cancel() {
	if r.fulfilled || r.cancelled || r.p.dead() {
		return
	}
	r.cancelled = true
	r.p.unblock()
}

// NewChan returns an empty rendezvous channel.
func NewChan(name string) *Chan { return &Chan{name: name} }

// liveSender pops dead senders and returns the first live one (nil when
// none).
func (c *Chan) liveSender() *sendReq {
	for len(c.senders) > 0 {
		s := c.senders[0]
		if s.p.dead() {
			c.senders = c.senders[1:]
			continue
		}
		return s
	}
	return nil
}

// liveReceiver pops dead or cancelled receivers and returns the first
// live one (nil when none).
func (c *Chan) liveReceiver() *recvReq {
	for len(c.receivers) > 0 {
		r := c.receivers[0]
		if r.p.dead() || r.cancelled {
			c.receivers = c.receivers[1:]
			continue
		}
		return r
	}
	return nil
}

// Send delivers v to a receiver, blocking p until one arrives.
func (c *Chan) Send(p *Process, v any) {
	if r := c.liveReceiver(); r != nil {
		c.receivers = c.receivers[1:]
		r.v = v
		r.fulfilled = true
		r.p.unblock()
		return
	}
	c.senders = append(c.senders, &sendReq{p: p, v: v})
	p.block("send:" + c.name)
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
	if s := c.liveSender(); s != nil {
		c.senders = c.senders[1:]
		s.p.unblock()
		return s.v, true
	}
	if d <= 0 {
		return nil, false
	}
	req := &recvReq{p: p}
	c.receivers = append(c.receivers, req)
	if !math.IsInf(d, 1) {
		p.e.After(d, req.cancel)
	}
	if l != nil {
		l.aborts = append(l.aborts, req)
	}
	p.block("recv:" + c.name)
	if l != nil {
		l.drop(req)
	}
	if req.cancelled {
		return nil, false
	}
	return req.v, true
}

// TrySend delivers v if a receiver is already waiting and reports whether
// it did; it never blocks.
func (c *Chan) TrySend(p *Process, v any) bool {
	if c.liveReceiver() == nil {
		return false
	}
	c.Send(p, v)
	return true
}

// Pending reports waiting senders (>0) or receivers (<0); 0 = idle.
// Dead waiters are not counted.
func (c *Chan) Pending() int {
	if s := c.liveSender(); s != nil {
		return len(c.senders)
	}
	if r := c.liveReceiver(); r != nil {
		return -len(c.receivers)
	}
	return 0
}

// latchWaiter tracks one process parked in Latch.Wait/WaitTimeout.
type latchWaiter struct {
	p         *Process
	released  bool // latch fired
	cancelled bool // timeout fired first
}

// Latch is a one-shot completion flag: Wait blocks until Set has been
// called (immediately returning if it already was). Multiple waiters
// are all released at the Set time. Receives bounded by the latch
// (Chan.RecvOrLatch) are registered only while they block.
type Latch struct {
	// Grace is how long a receive bounded by the latch outlives Set
	// (0 = aborted at Set, +Inf = never abandoned: Set then neither wakes
	// the receiver nor schedules an event).
	Grace float64

	name    string
	set     bool
	waiting []*latchWaiter
	aborts  []*recvReq
}

// NewLatch returns an unset latch.
func NewLatch(name string) *Latch { return &Latch{name: name} }

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
		w.released = true
		w.p.unblock()
	}
	l.waiting = nil
	for _, r := range l.aborts {
		if l.Grace <= 0 {
			r.cancel()
		} else if !math.IsInf(l.Grace, 1) {
			r.p.e.After(l.Grace, r.cancel)
		}
	}
	l.aborts = nil
}

// drop forgets a bounded receive that has completed, keeping the order
// of the rest (it decides the wake-up order at Set).
func (l *Latch) drop(r *recvReq) {
	for i, x := range l.aborts {
		if x == r {
			l.aborts = append(l.aborts[:i], l.aborts[i+1:]...)
			return
		}
	}
}

// IsSet reports whether the latch has fired.
func (l *Latch) IsSet() bool { return l.set }

// Wait blocks p until the latch is set.
func (l *Latch) Wait(p *Process) { l.WaitTimeout(p, math.Inf(1)) }

// WaitTimeout blocks p until the latch fires (true) or d seconds pass
// (false); d = +Inf is Wait.
func (l *Latch) WaitTimeout(p *Process, d float64) bool {
	if l.set {
		return true
	}
	w := &latchWaiter{p: p}
	l.waiting = append(l.waiting, w)
	if !math.IsInf(d, 1) {
		p.e.After(d, func() {
			if w.released || w.cancelled || p.dead() {
				return
			}
			w.cancelled = true
			p.unblock()
		})
	}
	p.block("latch:" + l.name)
	return !w.cancelled
}

// Queue is an unbounded asynchronous FIFO between simulated processes:
// Put never blocks (the sender proceeds immediately, like raising a flag
// in its own MPB) and Get blocks until an item is available. Items are
// delivered in Put order, so behaviour is deterministic.
type Queue struct {
	name    string
	items   []any
	getters []*recvReq
}

// NewQueue returns an empty queue.
func NewQueue(name string) *Queue { return &Queue{name: name} }

// Put appends v; if a getter is parked, it receives v at the current
// time. Put is callable from any process or callback context.
func (q *Queue) Put(v any) {
	for len(q.getters) > 0 {
		r := q.getters[0]
		q.getters = q.getters[1:]
		if r.p.dead() || r.cancelled {
			continue
		}
		r.v = v
		r.fulfilled = true
		r.p.unblock()
		return
	}
	q.items = append(q.items, v)
}

// Get returns the next item, blocking p until one is Put.
func (q *Queue) Get(p *Process) any {
	v, _ := q.GetTimeout(p, math.Inf(1))
	return v
}

// GetTimeout is Get with a deadline: (item, true) when one arrives
// within d seconds, else (nil, false).
func (q *Queue) GetTimeout(p *Process, d float64) (any, bool) {
	if len(q.items) > 0 {
		v := q.items[0]
		q.items = q.items[1:]
		return v, true
	}
	req := &recvReq{p: p}
	q.getters = append(q.getters, req)
	if !math.IsInf(d, 1) {
		p.e.After(d, req.cancel)
	}
	p.block("queue:" + q.name)
	if req.cancelled {
		return nil, false
	}
	return req.v, true
}

// Len returns the number of queued (undelivered) items.
func (q *Queue) Len() int { return len(q.items) }

// Drain removes and returns all queued items.
func (q *Queue) Drain() []any {
	out := q.items
	q.items = nil
	return out
}

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
	p.block("barrier:" + b.name)
}

// Waiting returns the number of processes currently parked at the
// barrier.
func (b *Barrier) Waiting() int { return len(b.waiting) }

// Resource is a counted FIFO resource (disk controller, mesh link, ...):
// Acquire blocks while all slots are busy; Release hands a slot to the
// longest waiter. Killed waiters are skipped when a slot frees up.
type Resource struct {
	name     string
	capacity int
	inUse    int
	queue    []*Process
	// Busy time accounting for utilisation reports.
	busyStart map[*Process]float64
	busyTotal float64
}

// NewResource returns a resource with the given slot count (>= 1).
func NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{name: name, capacity: capacity, busyStart: map[*Process]float64{}}
}

// Acquire takes a slot, blocking until one frees up.
func (r *Resource) Acquire(p *Process) {
	if r.inUse < r.capacity {
		r.inUse++
		r.busyStart[p] = p.Now()
		return
	}
	r.queue = append(r.queue, p)
	p.block("acquire:" + r.name)
	// Woken by Release, which already transferred the slot to us.
	r.busyStart[p] = p.Now()
}

// Release frees p's slot; the longest live waiter (if any) inherits it.
func (r *Resource) Release(p *Process) {
	if start, ok := r.busyStart[p]; ok {
		r.busyTotal += p.Now() - start
		delete(r.busyStart, p)
	}
	for len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
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

// InUse returns the number of occupied slots.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of blocked waiters.
func (r *Resource) QueueLen() int { return len(r.queue) }

// BusySeconds returns the total slot-seconds consumed so far (completed
// holds only).
func (r *Resource) BusySeconds() float64 { return r.busyTotal }
