//go:build go1.23

package sim

// The engine-order oracle: random process scripts run on the engine and
// on ref, a heap-only engine — every wake-up queued and popped, every
// process resumed by the dispatch loop, as the engine worked before it
// took wake-ups in place and kept same-time events beside the heap — and
// must leave the same (now, seq, who) log and the same wake-up and
// callback counts.

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rckalign/internal/metrics"
)

// ---- the heap-only reference engine ----

type refEvent struct {
	t   float64
	seq int64
	p   *refProc
	fn  func()
}

type refEngine struct {
	now    float64
	events []refEvent // unordered; pop takes the least (t, seq)
	seq    int64
	until  float64
	live   []*refProc

	wakes, callbacks int64
}

type refProc struct {
	e          *refEngine
	name       string
	next       func() (struct{}, bool)
	toEngine   func(struct{}) bool
	stop       func()
	done       bool
	killed     bool
	stallUntil float64
	blockOn    string
}

func (e *refEngine) push(ev refEvent) {
	e.seq++
	ev.seq = e.seq
	e.events = append(e.events, ev)
}

func (e *refEngine) pop() refEvent {
	k := 0
	for i, ev := range e.events {
		if ev.t < e.events[k].t || ev.t == e.events[k].t && ev.seq < e.events[k].seq {
			k = i
		}
	}
	ev := e.events[k]
	e.events = slices.Delete(e.events, k, k+1)
	return ev
}

func (e *refEngine) Schedule(t float64, fn func()) {
	if !(t >= e.now) {
		t = e.now
	}
	e.push(refEvent{t: t, fn: fn})
}

func (e *refEngine) wake(t float64, p *refProc) {
	if !(t >= e.now) {
		panic("ref: wake-up before now")
	}
	e.push(refEvent{t: t, p: p})
}

func (e *refEngine) Spawn(name string, body func(p *refProc)) *refProc {
	p := &refProc{e: e, name: name}
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
	e.wake(e.now, p)
	return p
}

func (e *refEngine) Kill(p *refProc) {
	if p.done || p.killed {
		return
	}
	p.killed = true
	e.wake(e.now, p)
}

func (e *refEngine) StallUntil(p *refProc, t float64) {
	if !p.dead() && t > p.stallUntil {
		p.stallUntil = t
	}
}

func (p *refProc) dead() bool { return p.done || p.killed }

func (p *refProc) yield() {
	if !p.toEngine(struct{}{}) {
		panic(killSentinel{})
	}
	for !p.killed && p.stallUntil > p.e.now {
		p.e.wake(p.stallUntil, p)
		if !p.toEngine(struct{}{}) {
			panic(killSentinel{})
		}
	}
	if p.killed {
		panic(killSentinel{})
	}
}

func (p *refProc) Wait(d float64) {
	if d < 0 || math.IsNaN(d) {
		d = 0
	}
	p.e.wake(p.e.now+d, p)
	p.yield()
}

func (p *refProc) block(on string) {
	p.blockOn = on
	p.yield()
	p.blockOn = ""
}

func (p *refProc) unblock() { p.e.wake(p.e.now, p) }

func (e *refEngine) dispatch(until float64) {
	e.until = until
	for len(e.events) > 0 {
		k := e.pop()
		if k.t > until {
			e.events = append(e.events, k) // not due: back in the queue
			return
		}
		e.now = k.t
		if p := k.p; p != nil {
			if p.done {
				continue
			}
			e.wakes++
			if _, suspended := p.next(); !suspended {
				p.done = true
				e.live = slices.DeleteFunc(e.live, func(q *refProc) bool { return q == p })
			}
		} else {
			e.callbacks++
			k.fn()
		}
	}
}

func (e *refEngine) Run() error {
	defer func() {
		e.until = math.Inf(-1)
		live := e.live
		e.live = nil
		for _, p := range live {
			p.done = true
			p.stop()
		}
	}()
	e.dispatch(math.Inf(1))
	if len(e.live) == 0 {
		return nil
	}
	var blocked []BlockedProcess
	for _, p := range e.live {
		blocked = append(blocked, BlockedProcess{Name: p.name, Reason: p.blockOn})
	}
	sort.Slice(blocked, func(i, j int) bool { return blocked[i].Name < blocked[j].Name })
	return &DeadlockError{Time: e.now, Blocked: blocked}
}

func (e *refEngine) RunUntil(t float64) {
	e.dispatch(t)
	if t > e.now {
		e.now = t
	}
}

type refWaiter struct {
	p                    *refProc
	fulfilled, cancelled bool
}

func (w *refWaiter) fulfil() {
	if !w.cancelled && !w.p.dead() {
		w.fulfilled = true
		w.p.unblock()
	}
}

func (w *refWaiter) cancel() {
	if !w.fulfilled && !w.cancelled && !w.p.dead() {
		w.cancelled = true
		w.p.unblock()
	}
}

type refChan struct {
	name      string
	senders   []*refProc
	receivers []*refWaiter
}

func (c *refChan) Send(p *refProc) {
	for len(c.receivers) > 0 {
		r := c.receivers[0]
		c.receivers = c.receivers[1:]
		if !r.p.dead() && !r.cancelled {
			r.fulfil()
			return
		}
	}
	c.senders = append(c.senders, p)
	p.block("send:" + c.name)
}

func (c *refChan) Recv(p *refProc, d float64) bool {
	for len(c.senders) > 0 {
		s := c.senders[0]
		c.senders = c.senders[1:]
		if !s.dead() {
			s.unblock()
			return true
		}
	}
	if d <= 0 {
		return false
	}
	w := &refWaiter{p: p}
	c.receivers = append(c.receivers, w)
	if !math.IsInf(d, 1) {
		p.e.Schedule(p.e.now+d, w.cancel)
	}
	p.block("recv:" + c.name)
	return !w.cancelled
}

type refLatch struct {
	name    string
	set     bool
	waiting []*refWaiter
}

func (l *refLatch) Set() {
	if l.set {
		return
	}
	l.set = true
	for _, w := range l.waiting {
		w.fulfil()
	}
	l.waiting = nil
}

func (l *refLatch) WaitTimeout(p *refProc, d float64) bool {
	if l.set {
		return true
	}
	w := &refWaiter{p: p}
	l.waiting = append(l.waiting, w)
	if !math.IsInf(d, 1) {
		p.e.Schedule(p.e.now+d, w.cancel)
	}
	p.block("latch:" + l.name)
	return !w.cancelled
}

type refResource struct {
	name  string
	inUse int
	queue []*refProc
}

func (r *refResource) Acquire(p *refProc) {
	if r.inUse < 1 {
		r.inUse++
		return
	}
	r.queue = append(r.queue, p)
	p.block("acquire:" + r.name)
}

func (r *refResource) Release() {
	for len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		if !next.dead() {
			next.unblock()
			return
		}
	}
	r.inUse--
}

// ---- one script, two engines ----

// orderWorld is what a script drives, by index: the engine or ref.
type orderWorld interface {
	spawn(name string, body func(orderProc))
	schedule(t float64, fn func())
	kill(i int)
	stall(i int, t float64)
	latchSet(l int)
	now() float64
	seq() int64
	runUntil(t float64)
	run() error
	counts() (wakes, callbacks int64)
}

type orderProc interface {
	wait(d float64)
	send(c int)
	recv(c int, d float64) bool
	latchWait(l int, d float64) bool
	use(d float64)
}

type simWorld struct {
	e       *Engine
	reg     *metrics.Registry
	procs   []*Process
	chans   [2]*Chan
	latches [2]*Latch
	res     *Resource
}

func newSimWorld() *simWorld {
	w := &simWorld{e: NewEngine(), reg: metrics.New(), res: NewResource("r", 1)}
	w.e.SetMetrics(w.reg)
	for i := range w.chans {
		w.chans[i], w.latches[i] = NewChan(fmt.Sprint("c", i)), NewLatch(fmt.Sprint("l", i))
	}
	return w
}

type simProc struct {
	w *simWorld
	p *Process
}

func (w *simWorld) spawn(name string, body func(orderProc)) {
	w.procs = append(w.procs, w.e.Spawn(name, func(p *Process) { body(simProc{w, p}) }))
}
func (w *simWorld) schedule(t float64, fn func()) { w.e.Schedule(t, fn) }
func (w *simWorld) kill(i int)                    { w.e.Kill(w.procs[i]) }
func (w *simWorld) stall(i int, t float64)        { w.e.StallUntil(w.procs[i], t) }
func (w *simWorld) latchSet(l int)                { w.latches[l].Set() }
func (w *simWorld) now() float64                  { return w.e.Now() }
func (w *simWorld) seq() int64                    { return w.e.seq }
func (w *simWorld) runUntil(t float64)            { w.e.RunUntil(t) }
func (w *simWorld) run() error                    { return w.e.Run() }
func (w *simWorld) counts() (int64, int64) {
	return int64(w.reg.Counter("sim.events.process_wakeups").Value()), int64(w.reg.Counter("sim.events.callbacks").Value())
}

func (s simProc) wait(d float64) { s.p.Wait(d) }
func (s simProc) send(c int)     { s.w.chans[c].Send(s.p, nil) }
func (s simProc) recv(c int, d float64) bool {
	_, ok := s.w.chans[c].RecvTimeout(s.p, d)
	return ok
}
func (s simProc) latchWait(l int, d float64) bool { return s.w.latches[l].WaitTimeout(s.p, d) }
func (s simProc) use(d float64)                   { s.w.res.Use(s.p, d) }

type refWorld struct {
	e       *refEngine
	procs   []*refProc
	chans   [2]*refChan
	latches [2]*refLatch
	res     *refResource
}

func newRefWorld() *refWorld {
	w := &refWorld{e: &refEngine{}, res: &refResource{name: "r"}}
	for i := range w.chans {
		w.chans[i], w.latches[i] = &refChan{name: fmt.Sprint("c", i)}, &refLatch{name: fmt.Sprint("l", i)}
	}
	return w
}

type refProcess struct {
	w *refWorld
	p *refProc
}

func (w *refWorld) spawn(name string, body func(orderProc)) {
	w.procs = append(w.procs, w.e.Spawn(name, func(p *refProc) { body(refProcess{w, p}) }))
}
func (w *refWorld) schedule(t float64, fn func()) { w.e.Schedule(t, fn) }
func (w *refWorld) kill(i int)                    { w.e.Kill(w.procs[i]) }
func (w *refWorld) stall(i int, t float64)        { w.e.StallUntil(w.procs[i], t) }
func (w *refWorld) latchSet(l int)                { w.latches[l].Set() }
func (w *refWorld) now() float64                  { return w.e.now }
func (w *refWorld) seq() int64                    { return w.e.seq }
func (w *refWorld) runUntil(t float64)            { w.e.RunUntil(t) }
func (w *refWorld) run() error                    { return w.e.Run() }
func (w *refWorld) counts() (int64, int64)        { return w.e.wakes, w.e.callbacks }

func (s refProcess) wait(d float64)                  { s.p.Wait(d) }
func (s refProcess) send(c int)                      { s.w.chans[c].Send(s.p) }
func (s refProcess) recv(c int, d float64) bool      { return s.w.chans[c].Recv(s.p, d) }
func (s refProcess) latchWait(l int, d float64) bool { return s.w.latches[l].WaitTimeout(s.p, d) }
func (s refProcess) use(d float64) {
	s.w.res.Acquire(s.p)
	s.p.Wait(d)
	s.w.res.Release()
}

// orderScript is a decoded fuzz input: per process a deferred-Wait flag
// and its ops, callbacks scheduled before the run, and the RunUntil
// horizons before the final Run.
type orderScript struct {
	procs []struct {
		deferWait bool
		ops       [][2]byte
	}
	callbacks [][2]byte
	horizons  []float64
}

// durs are the script's durations: few, so equal times are common.
var durs = [4]float64{0, 0.5, 1, 1.5}

func decodeOrderScript(data []byte) orderScript {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var s orderScript
	b := next()
	s.procs = make([]struct {
		deferWait bool
		ops       [][2]byte
	}, 2+int(b%3))
	for i := 0; i < int(b/3%3); i++ {
		s.callbacks = append(s.callbacks, [2]byte{next(), next()})
	}
	for i := 0; i < int(b/9%3); i++ {
		s.horizons = append(s.horizons, durs[next()%4]+float64(i))
	}
	for i := range s.procs {
		h := next()
		s.procs[i].deferWait = h&1 != 0
		for k := 0; k < int(h>>1%9); k++ {
			s.procs[i].ops = append(s.procs[i].ops, [2]byte{next(), next()})
		}
	}
	return s
}

// orderEntry is one log line: the time, the seq counter and who logged
// (process i's op k as i<<8|k, its start as k = 255 and its deferred
// Wait as k = 254; callback j as -1-j; the driver after a RunUntil as
// -1000 and after Run as -1001).
type orderEntry struct {
	now float64
	seq int64
	who int
}

// runOrderScript runs s on w and returns its log, counts and outcome.
func runOrderScript(w orderWorld, s orderScript) ([]orderEntry, [2]int64, string) {
	var log []orderEntry
	note := func(who int) { log = append(log, orderEntry{w.now(), w.seq(), who}) }
	n := len(s.procs)
	cb := 0
	// action runs a callback's or an op's side effect on the world.
	action := func(a byte) {
		switch arg := int(a >> 2); a % 4 {
		case 1:
			w.latchSet(arg % 2)
		case 2:
			w.kill(arg % n)
		case 3:
			w.stall(arg%n, w.now()+durs[arg/n%4])
		}
	}
	schedule := func(at float64, a byte) {
		id := cb
		cb++
		w.schedule(at, func() {
			note(-1 - id)
			action(a)
		})
	}
	for _, c := range s.callbacks {
		schedule(durs[c[0]%4], c[1])
	}
	for i, sp := range s.procs {
		w.spawn(fmt.Sprint("p", i), func(p orderProc) {
			note(i<<8 | 255)
			if sp.deferWait {
				defer func() {
					p.wait(1)
					note(i<<8 | 254)
				}()
			}
			for k, op := range sp.ops {
				arg := int(op[1])
				d := durs[arg%4]
				timeout := math.Inf(1)
				if arg&4 != 0 {
					timeout = d
				}
				switch op[0] % 9 {
				case 0:
					p.wait(d)
				case 1:
					schedule(w.now()+float64(arg>>4%2), byte(arg>>2))
				case 2:
					p.send(arg >> 3 % 2)
				case 3:
					p.recv(arg>>3%2, timeout)
				case 4:
					p.latchWait(arg>>3%2, timeout)
				case 5:
					w.latchSet(arg >> 3 % 2)
				case 6:
					p.use(d)
				case 7:
					action(byte(arg&^3 | 2 | arg>>6&1)) // a kill or a stall
				case 8:
					p.wait(0)
				}
				note(i<<8 | k)
			}
		})
	}
	for _, h := range s.horizons {
		w.runUntil(h)
		note(-1000)
		schedule(w.now(), 0) // a callback at now, queued between dispatches
	}
	err := w.run()
	note(-1001)
	wakes, callbacks := w.counts()
	return log, [2]int64{wakes, callbacks}, fmt.Sprint(err)
}

// checkEngineOrder runs one input on both engines and compares.
func checkEngineOrder(t *testing.T, data []byte) {
	s := decodeOrderScript(data)
	got, gotN, gotErr := runOrderScript(newSimWorld(), s)
	want, wantN, wantErr := runOrderScript(newRefWorld(), s)
	if gotN != wantN || gotErr != wantErr {
		t.Fatalf("input %q: wakes, callbacks %v and outcome %q; heap-only %v and %q", data, gotN, gotErr, wantN, wantErr)
	}
	if !slices.Equal(got, want) {
		k := 0
		for k < len(got) && k < len(want) && got[k] == want[k] {
			k++
		}
		t.Fatalf("input %q: logs part at entry %d of %d/%d:\n got  %v\n want %v", data, k, len(got), len(want), got[k:min(k+3, len(got))], want[k:min(k+3, len(want))])
	}
}

// FuzzEngineOrder: any script leaves the same log, counts and outcome on
// the engine as on the heap-only reference.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 2, 16, 0, 16, 8, 16, 0})
	f.Add([]byte{26, 1, 7, 3, 6, 3, 3, 2, 0, 9, 3, 4, 2, 5, 0})
	f.Fuzz(checkEngineOrder)
}

// TestEngineOrderMatchesHeapOnly runs a few thousand seeded random
// scripts through the oracle.
func TestEngineOrderMatchesHeapOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 3000
	if testing.Short() {
		n = 300
	}
	for i := 0; i < n; i++ {
		data := make([]byte, rng.Intn(64))
		rng.Read(data)
		checkEngineOrder(t, data)
	}
}
