package rcce

import (
	"math"
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

// dropAll is a wire that loses every message.
type dropAll struct{}

func (dropAll) Deliver(*sim.Process, *Message) Outcome { return Outcome{Drop: true} }

// TestTransferRecycledOnce: a normal send, a dropped message and a
// receive that times out mid-transfer each hand their transfer back to
// the free list exactly once — both sides let go, neither twice.
func TestTransferRecycledOnce(t *testing.T) {
	cases := []struct {
		name string
		wire Interposer
		d    float64 // the receive's deadline
		ok   bool
	}{
		{"send", nil, math.Inf(1), true},
		{"dropped", dropAll{}, 1e-3, false},
		{"timed out", nil, 1e-6, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, c := newComm()
			c.SetInterposer(tc.wire)
			ok := !tc.ok
			c.Chip().SpawnCore(47, func(p *sim.Process) {
				_, _, ok = c.RecvTimeout(p, 0, 47, tc.d)
			})
			c.Chip().SpawnCore(0, func(p *sim.Process) {
				c.Send(p, 0, 47, 16*1024, nil)
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if ok != tc.ok {
				t.Errorf("receive ok = %v, want %v", ok, tc.ok)
			}
			if len(c.free) != 1 {
				t.Fatalf("free list holds %d transfers, want 1", len(c.free))
			}
			if r := c.free[0].refs; r != 0 {
				t.Errorf("recycled transfer has %d refs, want 0 (each side released once)", r)
			}
		})
	}
}
