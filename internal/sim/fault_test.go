package sim

import (
	"math"
	"strings"
	"testing"
)

func TestKillUnblocksDeadlockDetection(t *testing.T) {
	e := NewEngine()
	c := NewChan("never")
	p := e.Spawn("victim", func(p *Process) {
		c.Recv(p)
		t.Error("killed process resumed past its blocking receive")
	})
	e.Schedule(3, func() { e.Kill(p) })
	if err := e.Run(); err != nil {
		t.Fatalf("killed process should not deadlock the run: %v", err)
	}
	if !p.Done() || !p.Killed() {
		t.Errorf("victim done=%v killed=%v, want true/true", p.Done(), p.Killed())
	}
}

func TestKillMidWait(t *testing.T) {
	e := NewEngine()
	var reached bool
	p := e.Spawn("victim", func(p *Process) {
		p.Wait(10)
		reached = true
	})
	e.Schedule(4, func() { e.Kill(p) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Error("process survived a kill issued mid-Wait")
	}
	if e.Now() != 10 {
		// The original wake event still drains (as a no-op).
		t.Logf("final time %v", e.Now())
	}
}

func TestKillSkipsDeadChanWaiter(t *testing.T) {
	e := NewEngine()
	c := NewChan("c")
	var got any
	victim := e.Spawn("victim", func(p *Process) { c.Recv(p) })
	e.Spawn("other", func(p *Process) {
		p.Wait(5)
		got = c.Recv(p)
	})
	e.Schedule(1, func() { e.Kill(victim) })
	e.Spawn("sender", func(p *Process) {
		p.Wait(6)
		c.Send(p, "v")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "v" {
		t.Errorf("value went to the dead receiver: got %v", got)
	}
}

func TestStallDefersWakeups(t *testing.T) {
	e := NewEngine()
	var resumed float64
	p := e.Spawn("worker", func(p *Process) {
		p.Wait(2)
		resumed = p.Now()
	})
	e.Schedule(1, func() { e.StallUntil(p, 7.5) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed != 7.5 {
		t.Errorf("stalled worker resumed at %v, want 7.5", resumed)
	}
}

func TestStallDoesNotShorten(t *testing.T) {
	e := NewEngine()
	var resumed float64
	p := e.Spawn("worker", func(p *Process) {
		p.Wait(2)
		resumed = p.Now()
	})
	e.Schedule(1, func() {
		e.StallUntil(p, 9)
		e.StallUntil(p, 4) // shorter stall must not override
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed != 9 {
		t.Errorf("resumed at %v, want 9", resumed)
	}
}

func TestRecvTimeoutExpires(t *testing.T) {
	e := NewEngine()
	c := NewChan("c")
	var ok bool
	var at float64
	e.Spawn("r", func(p *Process) {
		_, ok = c.RecvTimeout(p, 3)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ok || at != 3 {
		t.Errorf("timeout recv: ok=%v at=%v, want false at 3", ok, at)
	}
}

func TestRecvTimeoutDelivers(t *testing.T) {
	e := NewEngine()
	c := NewChan("c")
	var v any
	var ok bool
	e.Spawn("r", func(p *Process) { v, ok = c.RecvTimeout(p, 10) })
	e.Spawn("s", func(p *Process) {
		p.Wait(2)
		c.Send(p, 99)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok || v != 99 {
		t.Errorf("got %v/%v, want 99/true", v, ok)
	}
}

func TestRecvTimeoutCancelledRequestInvisibleToSender(t *testing.T) {
	e := NewEngine()
	c := NewChan("c")
	var pending int
	e.Spawn("r", func(p *Process) {
		if _, ok := c.RecvTimeout(p, 1); ok {
			t.Error("first recv should time out")
		}
	})
	e.Spawn("s", func(p *Process) {
		p.Wait(2)
		pending = c.Pending()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if pending != 0 {
		t.Errorf("a sender sees Pending() = %d after the receive timed out, want 0", pending)
	}
}

func TestRecvOrLatchAborts(t *testing.T) {
	e := NewEngine()
	c := NewChan("c")
	stop := NewLatch("stop")
	var ok bool
	var at float64
	e.Spawn("r", func(p *Process) {
		_, ok = c.RecvOrLatch(p, stop)
		at = p.Now()
	})
	e.Schedule(4, stop.Set)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ok || at != 4 {
		t.Errorf("latch abort: ok=%v at=%v, want false at 4", ok, at)
	}
	// A second receive against the fired latch returns immediately.
	var ok2 bool
	e2 := NewEngine()
	e2.Spawn("r2", func(p *Process) { _, ok2 = c.RecvOrLatch(p, stop) })
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if ok2 {
		t.Error("recv against a fired latch should abort immediately")
	}
}

// TestRecvOrLatchGrace: a receive bounded by a latch outlives the
// latch's Set by its grace period — and forever under an infinite
// grace, where Set neither wakes the receiver nor schedules an event.
func TestRecvOrLatchGrace(t *testing.T) {
	e := NewEngine()
	c, idle := NewChan("c"), NewChan("idle")
	stop, never := NewLatch("stop"), NewLatch("never")
	stop.Grace, never.Grace = 2, math.Inf(1)
	var ok, idleOK bool
	var at float64
	e.Spawn("r", func(p *Process) {
		_, ok = c.RecvOrLatch(p, stop)
		at = p.Now()
	})
	e.Spawn("patient", func(p *Process) { _, idleOK = idle.RecvOrLatch(p, never) })
	e.Schedule(4, stop.Set)
	e.Schedule(4, never.Set)
	e.Spawn("s", func(p *Process) {
		p.Wait(10)
		idle.Send(p, "late")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ok || at != 6 {
		t.Errorf("bounded recv: ok=%v at=%v, want false at 6 (set 4 + grace 2)", ok, at)
	}
	if !idleOK {
		t.Error("infinite-grace recv gave up")
	}
}

// TestRecvOrLatchDropsCompletedRegistrations: a slave loop parks on the
// team's stop latch once per job; completed receives must not pile up
// on the latch.
func TestRecvOrLatchDropsCompletedRegistrations(t *testing.T) {
	e := NewEngine()
	c := NewChan("c")
	stop := NewLatch("stop")
	const n = 1000
	e.Spawn("r", func(p *Process) {
		for i := 0; i < n; i++ {
			c.RecvOrLatch(p, stop)
			if len(stop.aborts) != 0 {
				t.Fatalf("cycle %d left %d registrations on the latch", i, len(stop.aborts))
			}
		}
	})
	e.Spawn("s", func(p *Process) {
		for i := 0; i < n; i++ {
			p.Wait(1)
			c.Send(p, i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLatchWaitTimeout(t *testing.T) {
	e := NewEngine()
	l := NewLatch("l")
	var early, late bool
	e.Spawn("a", func(p *Process) { early = l.WaitTimeout(p, 2) })
	e.Spawn("b", func(p *Process) { late = l.WaitTimeout(p, 10) })
	e.Schedule(5, l.Set)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if early {
		t.Error("2s wait on a latch set at t=5 should time out")
	}
	if !late {
		t.Error("10s wait on a latch set at t=5 should succeed")
	}
}

func TestQueuePutNeverBlocks(t *testing.T) {
	e := NewEngine()
	q := NewQueue("q")
	var got []any
	e.Spawn("putter", func(p *Process) {
		q.Put(1)
		q.Put(2)
		if p.Now() != 0 {
			t.Errorf("Put advanced time to %v", p.Now())
		}
	})
	e.Spawn("getter", func(p *Process) {
		p.Wait(1)
		got = append(got, q.Get(p), q.Get(p))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("got %v, want [1 2]", got)
	}
}

func TestQueueGetTimeout(t *testing.T) {
	e := NewEngine()
	q := NewQueue("q")
	var ok bool
	var then any
	e.Spawn("getter", func(p *Process) {
		_, ok = q.GetTimeout(p, 2)
		then, _ = q.GetTimeout(p, 10)
	})
	e.Schedule(5, func() { q.Put("late") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("empty queue get should time out")
	}
	if then != "late" {
		t.Errorf("second get = %v, want late", then)
	}
}

func TestDeadlockErrorDetail(t *testing.T) {
	e := NewEngine()
	c := NewChan("rcce.req.0->3")
	e.Spawn("rck03", func(p *Process) {
		p.SetBlockDetail("rcce recv 0->3")
		c.Recv(p)
	})
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(de.Blocked) != 1 {
		t.Fatalf("blocked = %v", de.Blocked)
	}
	b := de.Blocked[0]
	if b.Name != "rck03" || b.Reason != "recv:rcce.req.0->3" || b.Detail != "rcce recv 0->3" {
		t.Errorf("blocked entry = %+v", b)
	}
	msg := de.Error()
	for _, want := range []string{"rck03", "recv:rcce.req.0->3", "rcce recv 0->3"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error message %q missing %q", msg, want)
		}
	}
}
