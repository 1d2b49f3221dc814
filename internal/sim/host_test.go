package sim

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestEventHeapOrder: random pushes interleaved with pops come out in
// (time, schedule) order, equal-time events in the order they went in.
func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h eventHeap
	var seq int64
	var floor event // the last event popped: nothing earlier may follow it
	pop := func() {
		ev := h.pop()
		if ev.before(&floor) {
			t.Fatalf("popped (t=%v seq=%d) after (t=%v seq=%d)", ev.t, ev.seq, floor.t, floor.seq)
		}
		floor = ev
	}
	for i := 0; i < 20000; i++ {
		if len(h) > 0 && rng.Intn(3) == 0 {
			pop()
			continue
		}
		// Few distinct times, never before the clock: many ties, as in a run.
		seq++
		h.push(event{t: floor.t + float64(rng.Intn(4)), seq: seq})
	}
	for len(h) > 0 {
		pop()
	}
}

// TestEngineScheduleNaNFiresNow: a NaN time has no place in the event order;
// Schedule runs it at Now, as Wait does, and later events keep theirs.
func TestEngineScheduleNaNFiresNow(t *testing.T) {
	e := NewEngine()
	var fired []float64
	note := func() { fired = append(fired, e.Now()) }
	e.Schedule(2, func() {
		e.After(3, note)
		e.After(math.NaN(), note)
		e.Schedule(math.NaN(), note)
		e.After(1, note)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []float64{2, 2, 3, 5}; !slices.Equal(fired, want) {
		t.Errorf("events fired at %v, want %v", fired, want)
	}
}

// TestEngineKillBeforeFirstWake: a process killed before it ever ran still
// starts its body, and unwinds at its first blocking call.
func TestEngineKillBeforeFirstWake(t *testing.T) {
	e := NewEngine()
	started, resumed := false, false
	p := e.Spawn("victim", func(p *Process) {
		started = true
		p.Wait(1)
		resumed = true
	})
	e.Kill(p)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !started || resumed || !p.Done() {
		t.Errorf("started=%v resumed=%v done=%v, want true/false/true", started, resumed, p.Done())
	}
}

// TestEngineBodyPanicSurfacesFromRun: a panic in a process body comes out of
// Run on the caller's goroutine, where it can be recovered, and takes no
// other process's goroutine with it.
func TestEngineBodyPanicSurfacesFromRun(t *testing.T) {
	boom := errors.New("boom")
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Errorf("recovered %v, want the body's panic value", r)
			}
		}()
		e := NewEngine()
		e.Spawn("bystander", func(p *Process) { NewChan("never").Recv(p) })
		e.Spawn("faulty", func(p *Process) {
			p.Wait(1)
			panic(boom)
		})
		e.Run()
		t.Error("Run returned past a panicking body")
	}()
	waitGoroutines(t, before)
}

// TestEngineDeadlockReleasesProcesses: Run unwinds the processes a deadlock
// leaves parked, so an engine that is dropped leaks no goroutine.
func TestEngineDeadlockReleasesProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		e := NewEngine()
		c := NewChan("never")
		unwound := 0
		for j := 0; j < 4; j++ {
			e.Spawn("stuck", func(p *Process) {
				defer func() { unwound++ }()
				p.Wait(float64(j))
				c.Recv(p)
			})
		}
		var dl *DeadlockError
		if err := e.Run(); !errors.As(err, &dl) || len(dl.Blocked) != 4 {
			t.Fatalf("Run = %v, want a 4-process deadlock", err)
		}
		if unwound != 4 {
			t.Fatalf("%d of 4 bodies unwound", unwound)
		}
	}
	waitGoroutines(t, before)
}

// waitGoroutines fails unless the goroutine count returns to want (a
// finished coroutine's goroutine exits a moment after its body).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: processes leaked", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// steadyAllocs reports the host allocations of one simulated second of
// an engine running procs, which loop until *stop is set, after a
// warm-up that lets queues and free lists reach their working size.
func steadyAllocs(t *testing.T, e *Engine, stop *bool) float64 {
	t.Helper()
	now := 0.0
	step := func() {
		now++
		e.RunUntil(now)
	}
	for i := 0; i < 100; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(1000, step)
	*stop = true
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return allocs
}

// TestEngineHostAllocations guards the engine's per-event host cost: in steady
// state a Wait wake-up, a channel rendezvous and a contended resource
// hand-over allocate nothing.
func TestEngineHostAllocations(t *testing.T) {
	t.Run("wait", func(t *testing.T) {
		e, stop := NewEngine(), false
		e.Spawn("w", func(p *Process) {
			for !stop {
				p.Wait(1)
			}
		})
		if got := steadyAllocs(t, e, &stop); got != 0 {
			t.Errorf("a Wait wake-up allocates %v objects, want 0", got)
		}
	})
	t.Run("chan", func(t *testing.T) {
		e, stop := NewEngine(), false
		c := NewChan("c")
		var v any = "payload"
		e.Spawn("recv", func(p *Process) {
			for c.Recv(p) != nil {
			}
		})
		e.Spawn("send", func(p *Process) {
			for !stop {
				p.Wait(1)
				c.Send(p, v)
			}
			c.Send(p, nil)
		})
		if got := steadyAllocs(t, e, &stop); got != 0 {
			t.Errorf("a rendezvous allocates %v objects, want 0", got)
		}
	})
	t.Run("resource", func(t *testing.T) {
		e, stop := NewEngine(), false
		r := NewResource("r", 1)
		for i := 0; i < 2; i++ {
			e.Spawn("user", func(p *Process) {
				for !stop {
					r.Use(p, 0.5)
				}
			})
		}
		if got := steadyAllocs(t, e, &stop); got != 0 {
			t.Errorf("a resource acquire/release allocates %v objects, want 0", got)
		}
	})
}

// TestInlineWakeYieldsToEarlierSeq: a process whose own wake-up ties in
// time with another process's earlier-scheduled one does not take the
// inline path; the other process runs first, as the heap orders them.
func TestInlineWakeYieldsToEarlierSeq(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("b", func(p *Process) {
		p.Wait(1) // scheduled at t=0: the lower seq at t=1
		order = append(order, "b")
	})
	e.Spawn("a", func(p *Process) {
		p.Wait(0.5)
		p.Wait(0.5) // scheduled at t=0.5, also for t=1
		order = append(order, "a")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"b", "a"}; !slices.Equal(order, want) {
		t.Errorf("order %v, want %v", order, want)
	}
}

// TestInlineWakeRespectsHorizon: a Wait past RunUntil's horizon stays
// queued, and the clock reads the horizon afterwards.
func TestInlineWakeRespectsHorizon(t *testing.T) {
	e := NewEngine()
	var woke []float64
	e.Spawn("w", func(p *Process) {
		p.Wait(1)
		woke = append(woke, p.Now())
		p.Wait(5)
		woke = append(woke, p.Now())
	})
	e.RunUntil(3)
	if !slices.Equal(woke, []float64{1}) || e.Now() != 3 {
		t.Fatalf("after RunUntil(3): woke %v, now %v; want [1], 3", woke, e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(woke, []float64{1, 6}) {
		t.Errorf("woke %v, want [1 6]", woke)
	}
}

// TestInlineWakeHonoursStallAndKill: a process that wakes itself inline
// between callbacks is still deferred by StallUntil and unwound by Kill.
func TestInlineWakeHonoursStallAndKill(t *testing.T) {
	e := NewEngine()
	var woke []float64
	p := e.Spawn("w", func(p *Process) {
		for {
			p.Wait(1)
			woke = append(woke, p.Now())
		}
	})
	e.Schedule(2.5, func() { e.StallUntil(p, 4.5) })
	e.Schedule(6, func() { e.Kill(p) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []float64{1, 2, 4.5, 5.5}; !slices.Equal(woke, want) || !p.Done() {
		t.Errorf("woke %v done=%v, want %v and done", woke, p.Done(), want)
	}
}

// TestReleaseUnwindsDeferredWait: a deferred Wait in a body that Run's
// release unwinds switches back to the engine — which unwinds it again —
// instead of resuming inline, and no goroutine outlives the run.
func TestReleaseUnwindsDeferredWait(t *testing.T) {
	before := runtime.NumGoroutine()
	resumed := false
	for i := 0; i < 10; i++ {
		e := NewEngine()
		e.Spawn("stuck", func(p *Process) {
			defer func() {
				p.Wait(1)
				resumed = true
			}()
			NewChan("never").Recv(p)
		})
		var dl *DeadlockError
		if err := e.Run(); !errors.As(err, &dl) {
			t.Fatalf("Run = %v, want a deadlock", err)
		}
	}
	if resumed {
		t.Error("a deferred Wait resumed during release")
	}
	waitGoroutines(t, before)
}

// TestWakeBeforeNowPanics: the always-on clock invariant — a process
// wake-up before Now, or at NaN, is an engine bug and panics.
func TestWakeBeforeNowPanics(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("p", func(p *Process) { p.Wait(1) })
	e.RunUntil(0.5)
	for _, at := range []float64{0.25, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("scheduleProc(%v) at now=0.5 did not panic", at)
				}
			}()
			e.scheduleProc(at, p)
		}()
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
