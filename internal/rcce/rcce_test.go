package rcce

import (
	"testing"

	"rckalign/internal/scc"
	"rckalign/internal/sim"
)

func newComm() (*sim.Engine, *Comm) {
	e := sim.NewEngine()
	chip := scc.New(e, scc.DefaultConfig())
	return e, New(chip)
}

func TestSendRecvDeliversPayload(t *testing.T) {
	e, c := newComm()
	var got Message
	c.Chip().SpawnCore(0, func(p *sim.Process) {
		c.Send(p, 0, 5, 1000, "hello")
	})
	c.Chip().SpawnCore(5, func(p *sim.Process) {
		got = c.Recv(p, 0, 5)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Payload != "hello" || got.Bytes != 1000 || got.Src != 0 || got.Dst != 5 {
		t.Errorf("got %+v", got)
	}
}

func TestSendRecvSynchronous(t *testing.T) {
	// Both sides must complete at the same simulated time, after the
	// transfer duration.
	e, c := newComm()
	var sendDone, recvDone float64
	c.Chip().SpawnCore(0, func(p *sim.Process) {
		c.Send(p, 0, 47, 16*1024, nil)
		sendDone = p.Now()
	})
	c.Chip().SpawnCore(47, func(p *sim.Process) {
		p.Wait(0.001) // receiver arrives late; sender must block
		c.Recv(p, 0, 47)
		recvDone = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sendDone != recvDone {
		t.Errorf("send finished at %v, recv at %v; want rendezvous", sendDone, recvDone)
	}
	if sendDone <= 0.001 {
		t.Errorf("completion %v should be after the receiver arrived", sendDone)
	}
}

func TestLargerMessagesTakeLonger(t *testing.T) {
	measure := func(bytes int) float64 {
		e, c := newComm()
		var done float64
		c.Chip().SpawnCore(0, func(p *sim.Process) { c.Send(p, 0, 40, bytes, nil) })
		c.Chip().SpawnCore(40, func(p *sim.Process) {
			c.Recv(p, 0, 40)
			done = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	small := measure(512)
	big := measure(512 * 1024)
	if big <= small {
		t.Errorf("512KB (%v) should take longer than 512B (%v)", big, small)
	}
	// Chunking through 8 KB MPB slots: 512 KB = 64 chunks, so the ratio
	// should be substantial.
	if big < 10*small {
		t.Errorf("chunked large transfer looks too cheap: %v vs %v", big, small)
	}
}

func TestProbeSeesBlockedSender(t *testing.T) {
	e, c := newComm()
	var before, during bool
	c.Chip().SpawnCore(0, func(p *sim.Process) {
		c.Send(p, 0, 7, 100, "x")
	})
	c.Chip().SpawnCore(7, func(p *sim.Process) {
		before = c.Probe(0, 7) // may be false: sender not yet started
		p.Wait(0.01)
		during = c.Probe(0, 7) // sender must be parked in Send by now
		if during {
			c.Recv(p, 0, 7)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	_ = before
	if !during {
		t.Error("Probe did not see the blocked sender")
	}
}

func TestPollCostGrowsWithDistance(t *testing.T) {
	_, c := newComm()
	near := c.PollCost(0, 1)
	far := c.PollCost(0, 47)
	if near <= 0 || far <= near {
		t.Errorf("poll costs: near=%v far=%v", near, far)
	}
}

func TestMessagesBetweenPairsIndependent(t *testing.T) {
	// Messages on (0->1) must not be received by Recv(2->1).
	e, c := newComm()
	var fromZero, fromTwo Message
	c.Chip().SpawnCore(0, func(p *sim.Process) { c.Send(p, 0, 1, 10, "zero") })
	c.Chip().SpawnCore(2, func(p *sim.Process) { c.Send(p, 2, 1, 10, "two") })
	c.Chip().SpawnCore(1, func(p *sim.Process) {
		fromTwo = c.Recv(p, 2, 1)
		fromZero = c.Recv(p, 0, 1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fromZero.Payload != "zero" || fromTwo.Payload != "two" {
		t.Errorf("cross-delivery: %v / %v", fromZero.Payload, fromTwo.Payload)
	}
}

func TestBarrierReleasesTogether(t *testing.T) {
	e, c := newComm()
	const n = 8
	c.ResetBarrier(n)
	var release []float64
	for i := 0; i < n; i++ {
		i := i
		c.Chip().SpawnCore(i, func(p *sim.Process) {
			p.Wait(float64(i) * 0.01)
			c.Barrier(p, n)
			release = append(release, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(release) != n {
		t.Fatalf("released %d, want %d", len(release), n)
	}
	for _, r := range release {
		if r != release[0] {
			t.Fatalf("barrier released at different times: %v", release)
		}
	}
	if release[0] < 0.07 {
		t.Errorf("barrier released at %v, before last arrival", release[0])
	}
}

func TestZeroByteSendStillWorks(t *testing.T) {
	e, c := newComm()
	ok := false
	c.Chip().SpawnCore(0, func(p *sim.Process) { c.Send(p, 0, 3, 0, nil) })
	c.Chip().SpawnCore(3, func(p *sim.Process) {
		c.Recv(p, 0, 3)
		ok = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("zero-byte message not delivered")
	}
}

func TestUnmatchedRecvDeadlocks(t *testing.T) {
	e, c := newComm()
	c.Chip().SpawnCore(9, func(p *sim.Process) {
		c.Recv(p, 0, 9)
	})
	if err := e.Run(); err == nil {
		t.Error("expected deadlock error for unmatched Recv")
	}
}
