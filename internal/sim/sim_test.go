package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestWaitAdvancesClock(t *testing.T) {
	e := NewEngine()
	var times []float64
	e.Spawn("a", func(p *Process) {
		times = append(times, p.Now())
		p.Wait(1.5)
		times = append(times, p.Now())
		p.Wait(2.5)
		times = append(times, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1.5, 4}
	for i, w := range want {
		if times[i] != w {
			t.Errorf("times[%d] = %v, want %v", i, times[i], w)
		}
	}
	if e.Now() != 4 {
		t.Errorf("final time %v", e.Now())
	}
}

func TestNegativeAndNaNWait(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(p *Process) {
		p.Wait(-5)
		if p.Now() != 0 {
			t.Errorf("negative wait advanced clock to %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleOrderingDeterministic(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1.0, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(order) {
		t.Errorf("same-time events fired out of schedule order: %v", order)
	}
}

func TestEventTimeOrdering(t *testing.T) {
	e := NewEngine()
	var order []float64
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		tm := rng.Float64() * 100
		e.Schedule(tm, func() { order = append(order, tm) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.Float64sAreSorted(order) {
		t.Error("events fired out of time order")
	}
}

func TestInterleavedProcesses(t *testing.T) {
	e := NewEngine()
	var log []string
	e.Spawn("a", func(p *Process) {
		for i := 0; i < 3; i++ {
			p.Wait(2)
			log = append(log, "a")
		}
	})
	e.Spawn("b", func(p *Process) {
		for i := 0; i < 2; i++ {
			p.Wait(3)
			log = append(log, "b")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "a", "b", "a"} // t=2,3,4,6,6 (b's t=6 event was scheduled first)
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestChanRendezvous(t *testing.T) {
	e := NewEngine()
	c := NewChan("c")
	var got any
	var recvTime float64
	e.Spawn("sender", func(p *Process) {
		p.Wait(5)
		c.Send(p, 42)
	})
	e.Spawn("receiver", func(p *Process) {
		got = c.Recv(p)
		recvTime = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("got %v", got)
	}
	if recvTime != 5 {
		t.Errorf("receive completed at %v, want 5 (rendezvous)", recvTime)
	}
}

func TestChanSenderBlocksForReceiver(t *testing.T) {
	e := NewEngine()
	c := NewChan("c")
	var sendDone float64
	e.Spawn("sender", func(p *Process) {
		c.Send(p, "x")
		sendDone = p.Now()
	})
	e.Spawn("receiver", func(p *Process) {
		p.Wait(7)
		c.Recv(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sendDone != 7 {
		t.Errorf("send completed at %v, want 7", sendDone)
	}
}

func TestChanFIFO(t *testing.T) {
	e := NewEngine()
	c := NewChan("c")
	var got []any
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("s", func(p *Process) { c.Send(p, i) })
	}
	e.Spawn("r", func(p *Process) {
		p.Wait(1)
		for i := 0; i < 3; i++ {
			got = append(got, c.Recv(p))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestTrySend(t *testing.T) {
	e := NewEngine()
	c := NewChan("c")
	var sent bool
	e.Spawn("s", func(p *Process) {
		sent = c.TrySend(p, 1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sent {
		t.Error("TrySend with no receiver should fail")
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	c := NewChan("never")
	e.Spawn("stuck", func(p *Process) {
		c.Recv(p)
	})
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(de.Blocked) != 1 {
		t.Errorf("blocked = %v", de.Blocked)
	}
	if de.Error() == "" {
		t.Error("empty error string")
	}
}

func TestResourceMutualExclusion(t *testing.T) {
	e := NewEngine()
	r := NewResource("disk", 1)
	var finish []float64
	for i := 0; i < 4; i++ {
		e.Spawn("w", func(p *Process) {
			r.Use(p, 10)
			finish = append(finish, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 20, 30, 40}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v (serialised)", finish, want)
		}
	}
	if r.BusySeconds() != 40 {
		t.Errorf("busy seconds = %v, want 40", r.BusySeconds())
	}
}

func TestResourceCapacity2(t *testing.T) {
	e := NewEngine()
	r := NewResource("link", 2)
	var finish []float64
	for i := 0; i < 4; i++ {
		e.Spawn("w", func(p *Process) {
			r.Use(p, 10)
			finish = append(finish, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Two at a time: finish at 10,10,20,20.
	want := []float64{10, 10, 20, 20}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceFIFOFairness(t *testing.T) {
	e := NewEngine()
	r := NewResource("res", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Spawn("w", func(p *Process) {
			p.Wait(float64(i) * 0.001) // stagger arrival
			r.Acquire(p)
			order = append(order, i)
			p.Wait(1)
			r.Release(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(order) {
		t.Errorf("resource not FIFO: %v", order)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []float64
	for _, tm := range []float64{1, 2, 3, 4, 5} {
		tm := tm
		e.Schedule(tm, func() { fired = append(fired, tm) })
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Errorf("fired %v, want 3 events", fired)
	}
	if e.Now() != 3 {
		t.Errorf("Now = %v", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 5 {
		t.Errorf("after Run fired %v", fired)
	}
}

func TestScheduleInPast(t *testing.T) {
	e := NewEngine()
	var at float64 = -1
	e.Spawn("a", func(p *Process) {
		p.Wait(10)
		p.e.Schedule(3, func() { at = p.Now() }) // in the past: clamp to now
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 10 {
		t.Errorf("past event fired at %v, want clamped to 10", at)
	}
}

func TestManyProcessesStress(t *testing.T) {
	e := NewEngine()
	const n = 200
	done := 0
	for i := 0; i < n; i++ {
		i := i
		e.Spawn("p", func(p *Process) {
			for k := 0; k < 10; k++ {
				p.Wait(float64((i*7+k*13)%17) * 0.1)
			}
			done++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != n {
		t.Errorf("done = %d, want %d", done, n)
	}
}

func TestAfter(t *testing.T) {
	e := NewEngine()
	var at float64
	e.Spawn("a", func(p *Process) {
		p.Wait(2)
		p.e.After(3, func() { at = p.e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5 {
		t.Errorf("After fired at %v, want 5", at)
	}
}

func TestLatch(t *testing.T) {
	e := NewEngine()
	l := NewLatch("x")
	var waited []float64
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Process) {
			l.WaitTimeout(p, math.Inf(1))
			waited = append(waited, p.Now())
		})
	}
	e.Spawn("setter", func(p *Process) {
		p.Wait(5)
		l.Set()
		l.Set() // second Set is a no-op
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(waited) != 3 {
		t.Fatalf("released %d waiters", len(waited))
	}
	for _, w := range waited {
		if w != 5 {
			t.Errorf("waiter released at %v, want 5", w)
		}
	}
	if !l.IsSet() {
		t.Error("latch should be set")
	}
	// Waiting on an already-set latch must not block.
	e2 := NewEngine()
	l2 := NewLatch("y")
	l2.Set()
	ok := false
	e2.Spawn("w", func(p *Process) {
		l2.WaitTimeout(p, math.Inf(1))
		ok = true
	})
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("pre-set latch blocked")
	}
}
