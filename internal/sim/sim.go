//go:build go1.23

// Package sim is a deterministic discrete-event simulation engine with
// SimPy-style coroutine processes. It provides the virtual clock under
// the SCC chip model: simulated cores are processes that Wait() for the
// durations charged by the cost model and exchange messages through
// rendezvous channels whose transfer latencies model the on-chip mesh.
//
// Exactly one goroutine (the engine's or one process's) runs at any
// moment, and events at equal times fire in schedule order, so runs are
// fully deterministic. Each process body is a coroutine (iter.Pull): the
// engine switches into it and it switches back directly, without a trip
// through the Go scheduler (or not at all when its own wake-up is next:
// see Process.Wait), and a panic in a body surfaces from Run on
// the caller's goroutine. Engines share nothing, so independent engines
// may run on different goroutines at once.
//
// Fault-injection support: a process can be fail-stopped (Engine.Kill)
// or transiently stalled (Engine.StallUntil) from a scheduled callback.
// A killed process unwinds out of whatever it is blocked on and leaves
// the live set, so it neither resumes nor counts as deadlocked; the
// synchronization primitives in sync.go lazily skip dead waiters.
package sim

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"
	"strings"

	"rckalign/internal/metrics"
)

// event is a scheduled wake-up of a process or a callback.
type event struct {
	t   float64
	seq int64
	p   *Process
	fn  func()
}

// before is the dispatch order: time, then schedule order. seq is unique,
// so the order is total and the pop sequence does not depend on how the
// heap arranges equal keys.
func (a *event) before(b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events by value (container/heap
// would box every event into an interface on the way in and out).
type eventHeap []event

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
	*h = s
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{} // release the process and callback to the collector
	s = s[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].before(&s[c]) {
			c++
		}
		if !s[c].before(&last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	if n > 0 {
		s[i] = last
	}
	*h = s
	return top
}

// Engine owns the virtual clock and the event queue: a heap and, beside
// it, a FIFO of the events scheduled at Now, whose seqs only grow — so
// the earlier by (time, seq) of the two heads is the heap-only order's.
type Engine struct {
	now    float64
	events eventHeap
	soon   fifo[event]
	seq    int64
	// until is the horizon of the dispatch loop in control, -Inf while
	// release unwinds processes: a process wake-up up to it may be taken
	// by the process itself (see Process.Wait).
	until float64
	// live holds the processes whose bodies have not finished, in spawn
	// order.
	live []*Process
	// freeWaiters recycles the wait records of sync.go's primitives (see
	// waiter.outcome for which ones qualify).
	freeWaiters []*waiter

	// Instrument handles, nil unless SetMetrics installed a registry;
	// every record call is a nil-safe no-op when disabled.
	mWakes     *metrics.Counter
	mCallbacks *metrics.Counter
	mSpawns    *metrics.Counter
	mKills     *metrics.Counter
	mBlocks    *metrics.Counter
	hBlock     *metrics.Histogram
}

// SetMetrics installs a metrics registry: the engine then counts event
// dispatches (process wake-ups vs callbacks), spawns, kills and process
// blocks, and records block durations as a histogram — all in simulated
// time.
func (e *Engine) SetMetrics(reg *metrics.Registry) {
	e.mWakes = reg.Counter("sim.events.process_wakeups")
	e.mCallbacks = reg.Counter("sim.events.callbacks")
	e.mSpawns = reg.Counter("sim.proc.spawned")
	e.mKills = reg.Counter("sim.proc.killed")
	e.mBlocks = reg.Counter("sim.proc.blocks")
	e.hBlock = reg.Histogram("sim.proc.block_seconds", metrics.TimeBuckets)
}

// NewEngine returns an empty engine at time 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule runs fn at absolute time t; a time in the past, or NaN (which
// would have no place in the event order), runs it at Now.
func (e *Engine) Schedule(t float64, fn func()) {
	if !(t >= e.now) {
		t = e.now
	}
	e.push(event{t: t, fn: fn})
}

// push queues ev under the next seq, in the FIFO when it is due now.
func (e *Engine) push(ev event) {
	e.seq++
	if ev.seq = e.seq; ev.t == e.now {
		e.soon.push(ev)
	} else {
		e.events.push(ev)
	}
}

// next pops the next event in dispatch order if it is due by until.
func (e *Engine) next(until float64) (event, bool) {
	soon := e.soon.len() > 0 && (len(e.events) == 0 || e.soon.front().before(&e.events[0]))
	if soon && e.soon.front().t <= until {
		return e.soon.pop(), true
	} else if !soon && len(e.events) > 0 && e.events[0].t <= until {
		return e.events.pop(), true
	}
	return event{}, false
}

// After runs fn after delay d.
func (e *Engine) After(d float64, fn func()) { e.Schedule(e.now+d, fn) }

// scheduleProc queues a wake-up of p at t. Every caller derives t from
// Now, so a time before it (or NaN) is an engine bug, not an input to
// clamp: it would break the clock's monotonicity.
func (e *Engine) scheduleProc(t float64, p *Process) {
	if !(t >= e.now) {
		panic(fmt.Sprintf("sim: %s woken at t=%v before now=%v", p.name, t, e.now))
	}
	e.push(event{t: t, p: p})
}

// killSentinel is the panic value that unwinds a killed process's
// body; the Spawn wrapper recovers it.
type killSentinel struct{}

// Process is a simulated thread of control. Its methods must only be
// called from within its own body function.
type Process struct {
	e    *Engine
	name string
	// The body runs as a coroutine: next, called by the engine, runs it
	// until it suspends again (false once it has returned); toEngine,
	// called by the body, hands control back (false when the engine is
	// releasing the process); stop unwinds a suspended body and frees its
	// goroutine.
	next     func() (struct{}, bool)
	toEngine func(struct{}) bool
	stop     func()
	done     bool
	// killed marks a fail-stopped process; its next wake-up unwinds the
	// body instead of resuming it.
	killed bool
	// stallUntil defers any wake-up scheduled to fire before it (a
	// transient core stall).
	stallUntil float64
	// blockKind and blockOn name what a process parked on a
	// channel/resource (not in the event queue) waits for, e.g. "recv:" on
	// "rcce.req.0->3", for deadlock diagnostics.
	blockKind, blockOn string
	// detailFormat and detailArgs are optional caller-supplied context for
	// the current blocking operation (e.g. an rcce transfer's src->dst and
	// byte count), formatted only when a DeadlockError is built.
	detailFormat string
	detailArgs   [3]int
	detailN      int
}

// Now returns the current simulated time.
func (p *Process) Now() float64 { return p.e.now }

// Killed reports whether the process has been fail-stopped.
func (p *Process) Killed() bool { return p.killed }

// Done reports whether the process has finished (returned or killed).
func (p *Process) Done() bool { return p.done }

// SetBlockDetail attaches human-readable context to the process's next
// blocking operations; it appears in DeadlockError reports. With args
// (at most three) format is a fmt format for them, applied only if a
// report is built — a per-message caller pays no formatting; without,
// it is the text itself. Pass "" to clear. Callers should clear it once
// the guarded operation returns.
func (p *Process) SetBlockDetail(format string, args ...int) {
	p.detailFormat = format
	p.detailN = copy(p.detailArgs[:], args)
}

// blockDetail renders the SetBlockDetail context.
func (p *Process) blockDetail() string {
	if p.detailN == 0 {
		return p.detailFormat
	}
	args := make([]any, p.detailN)
	for i := range args {
		args[i] = p.detailArgs[i]
	}
	return fmt.Sprintf(p.detailFormat, args...)
}

// dead reports that a process should no longer be matched by
// synchronization primitives (it finished or a kill is in flight).
func (p *Process) dead() bool { return p.done || p.killed }

// Spawn creates a process that starts executing body at the current
// simulated time (once Run is in control). A panic in body propagates
// out of Run or RunUntil.
func (e *Engine) Spawn(name string, body func(p *Process)) *Process {
	p := &Process{e: e, name: name}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.toEngine = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killSentinel); !ok {
					panic(r)
				}
			}
		}()
		body(p)
	})
	e.live = append(e.live, p)
	e.scheduleProc(e.now, p)
	e.mSpawns.Inc()
	return p
}

// Kill fail-stops p: its next wake-up unwinds the process instead of
// resuming it, and it leaves the live set (so it cannot deadlock the
// run). Call from a scheduled callback or another process; killing an
// already-finished process is a no-op. The dead process's entries in
// channels, latches and resources are skipped lazily.
func (e *Engine) Kill(p *Process) {
	if p == nil || p.done || p.killed {
		return
	}
	p.killed = true
	e.mKills.Inc()
	// Wake it (possibly redundantly) so the body unwinds promptly.
	e.scheduleProc(e.now, p)
}

// StallUntil freezes p's wake-ups until absolute time t: any resume that
// would fire earlier is deferred to t (a transient core stall). Extends,
// never shortens, an existing stall.
func (e *Engine) StallUntil(p *Process, t float64) {
	if p == nil || p.dead() {
		return
	}
	if t > p.stallUntil {
		p.stallUntil = t
	}
}

// yield parks the process until it is resumed. Wake-ups inside a stall
// window are re-deferred to the stall end; a pending kill, or the engine
// releasing the process, unwinds the body via the sentinel panic.
func (p *Process) yield() {
	for {
		if !p.toEngine(struct{}{}) || p.killed {
			panic(killSentinel{})
		} else if p.stallUntil <= p.e.now {
			return
		}
		p.e.scheduleProc(p.stallUntil, p)
	}
}

// Wait advances the process's local time by d seconds of simulated time.
// Negative d is treated as zero. A wake-up within the dispatch horizon,
// strictly before every queued event, that no kill or stall defers is
// taken in place: queued, it would be popped next and resume this
// process at once, so only its seq and count are left to take.
func (p *Process) Wait(d float64) {
	if d < 0 || math.IsNaN(d) {
		d = 0
	}
	e := p.e
	t := e.now + d
	if t <= e.until && e.soon.len() == 0 && (len(e.events) == 0 || t < e.events[0].t) && !p.killed && p.stallUntil <= t {
		e.seq++
		e.now = t
		e.mWakes.Inc()
		return
	}
	e.scheduleProc(t, p)
	p.yield()
}

// block parks the process with no scheduled wake-up; some other process
// or event must call unblock. kind and on ("recv:", the channel's name)
// are recorded for deadlock reports — as given, so no per-block string is
// built. (A killed process unwinds out of yield, so the histogram only
// sees blocks that actually resumed.)
func (p *Process) block(kind, on string) {
	p.blockKind, p.blockOn = kind, on
	p.e.mBlocks.Inc()
	start := p.e.now
	p.yield()
	p.e.hBlock.Observe(p.e.now - start)
	p.blockKind, p.blockOn = "", ""
}

// unblock schedules p to resume at the current time.
func (p *Process) unblock() {
	p.e.scheduleProc(p.e.now, p)
}

// BlockedProcess describes one process stuck at deadlock detection time.
type BlockedProcess struct {
	// Name is the process name (e.g. "rck03").
	Name string
	// Reason is the primitive it is parked on (e.g. "recv:rcce.req.0->3").
	Reason string
	// Detail is optional operation context supplied via SetBlockDetail
	// (e.g. "rcce send 0->3 (1234 bytes)").
	Detail string
}

func (b BlockedProcess) String() string {
	if b.Detail != "" {
		return fmt.Sprintf("%s blocked on %s [%s]", b.Name, b.Reason, b.Detail)
	}
	return fmt.Sprintf("%s blocked on %s", b.Name, b.Reason)
}

// DeadlockError reports processes still blocked when the event queue
// drained, with each process's block reason and any operation detail.
type DeadlockError struct {
	Time    float64
	Blocked []BlockedProcess
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock at t=%.6f: %d process(es) blocked:", e.Time, len(e.Blocked))
	for _, bp := range e.Blocked {
		b.WriteString("\n  ")
		b.WriteString(bp.String())
	}
	return b.String()
}

// dispatch executes events with timestamps <= until, in (time, schedule)
// order.
func (e *Engine) dispatch(until float64) {
	e.until = until
	for ev, ok := e.next(until); ok; ev, ok = e.next(until) {
		e.now = ev.t
		if p := ev.p; p != nil {
			if p.done {
				continue
			}
			e.mWakes.Inc()
			if _, suspended := p.next(); !suspended {
				p.done = true
				e.live = slices.DeleteFunc(e.live, func(q *Process) bool { return q == p })
			}
		} else if ev.fn != nil {
			e.mCallbacks.Inc()
			ev.fn()
		}
	}
}

// Run executes events until the queue drains. It returns a DeadlockError
// if live processes remain blocked with no pending events, else nil.
// Either way — and when a body's panic passes through — no process
// outlives the call: the ones still parked are unwound like killed ones,
// so their goroutines end.
func (e *Engine) Run() error {
	defer e.release()
	e.dispatch(math.Inf(1))
	if len(e.live) == 0 {
		return nil
	}
	blocked := make([]BlockedProcess, 0, len(e.live))
	for _, p := range e.live {
		blocked = append(blocked, BlockedProcess{Name: p.name, Reason: p.blockKind + p.blockOn, Detail: p.blockDetail()})
	}
	sort.Slice(blocked, func(i, j int) bool {
		if blocked[i].Name != blocked[j].Name {
			return blocked[i].Name < blocked[j].Name
		}
		return blocked[i].Reason < blocked[j].Reason
	})
	return &DeadlockError{Time: e.now, Blocked: blocked}
}

// release unwinds every process still live, in spawn order.
func (e *Engine) release() {
	e.until = math.Inf(-1) // an unwinding body's Wait must not resume it
	live := e.live
	e.live = nil
	for _, p := range live {
		p.done = true
		p.stop()
	}
}

// RunUntil executes events with timestamps <= t, then stops (remaining
// events stay queued). It does not report deadlock.
func (e *Engine) RunUntil(t float64) {
	e.dispatch(t)
	if t > e.now {
		e.now = t
	}
}
