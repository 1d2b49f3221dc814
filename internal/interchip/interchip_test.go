package interchip

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"rckalign/internal/metrics"
	"rckalign/internal/sim"
)

func TestTransferSeconds(t *testing.T) {
	cfg := Config{LatencySeconds: 1e-6, BytesPerSecond: 1e9}
	got := cfg.TransferSeconds(1000)
	want := 1e-6 + 1000/1e9
	if math.Abs(got-want) > 1e-18 {
		t.Fatalf("TransferSeconds(1000) = %g, want %g", got, want)
	}
}

// TestProfileAndSpec: the three names resolve (case-insensitively), and
// anything else, a key=value spec included, is an unknown profile.
func TestProfileAndSpec(t *testing.T) {
	for _, name := range []string{"board", "cluster", "ideal", "BOARD"} {
		if _, err := Profile(name); err != nil {
			t.Errorf("Profile(%q): %v", name, err)
		}
	}
	if cfg, _ := Profile("board"); cfg != DefaultConfig() {
		t.Errorf("Profile(board) = %+v, want DefaultConfig", cfg)
	}
	for _, bad := range []string{"warp", "lat=5e-6,bw=2e9", ""} {
		if _, err := Profile(bad); err == nil || !strings.Contains(err.Error(), "unknown profile") {
			t.Errorf("Profile(%q): err = %v, want unknown profile", bad, err)
		}
	}
}

// TestSendTiming checks the un-contended cost model: the sender pays
// latency + serialization, the receiver additionally pays the handling
// cost, and the payload arrives intact.
func TestSendTiming(t *testing.T) {
	cfg := Config{LatencySeconds: 1e-3, BytesPerSecond: 1e6, RecvSeconds: 1e-4, PortConcurrency: 1}
	e := sim.NewEngine()
	f := New(2, cfg)
	var sendDone, recvDone float64
	var got Message
	e.Spawn("sender", func(p *sim.Process) {
		f.Send(p, 0, 1, 1000, "shard")
		sendDone = p.Now()
	})
	e.Spawn("receiver", func(p *sim.Process) {
		got = f.Recv(p, 1)
		recvDone = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	wantXfer := 1e-3 + 1000/1e6
	if math.Abs(sendDone-wantXfer) > 1e-12 {
		t.Fatalf("sender finished at %g, want %g", sendDone, wantXfer)
	}
	if math.Abs(recvDone-(wantXfer+1e-4)) > 1e-12 {
		t.Fatalf("receiver finished at %g, want %g", recvDone, wantXfer+1e-4)
	}
	if got.Payload != "shard" || got.Src != 0 || got.Dst != 1 || got.Bytes != 1000 {
		t.Fatalf("bad message: %+v", got)
	}
	if got.ArrivedAt != sendDone {
		t.Fatalf("ArrivedAt = %g, want send completion %g", got.ArrivedAt, sendDone)
	}
}

// TestIngressContention checks that two chips sending to the same
// destination serialize on its ingress port, and that the queueing time
// is accounted as send wait.
func TestIngressContention(t *testing.T) {
	cfg := Config{LatencySeconds: 0, BytesPerSecond: 1e6, PortConcurrency: 1}
	e := sim.NewEngine()
	f := New(3, cfg)
	done := make([]float64, 3)
	for src := 1; src <= 2; src++ {
		src := src
		e.Spawn("sender", func(p *sim.Process) {
			f.Send(p, src, 0, 1000, nil) // 1 ms each
			done[src] = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	first, second := done[1], done[2]
	if second < first {
		first, second = second, first
	}
	if math.Abs(first-1e-3) > 1e-12 || math.Abs(second-2e-3) > 1e-12 {
		t.Fatalf("ingress should serialize: finishes %v, want 1ms and 2ms", done[1:])
	}
	st := f.Stats()
	if math.Abs(st.SendWaitSeconds-1e-3) > 1e-12 {
		t.Fatalf("SendWaitSeconds = %g, want 1ms of queueing", st.SendWaitSeconds)
	}
	if st.PeakInboxDepth[0] != 2 {
		t.Fatalf("peak inbox = %d, want 2 undelivered", st.PeakInboxDepth[0])
	}
}

// TestAsyncDelivery checks that a busy receiver never blocks senders:
// the inbox absorbs the burst and drains in arrival order.
func TestAsyncDelivery(t *testing.T) {
	cfg := Config{LatencySeconds: 1e-6, BytesPerSecond: 1e9, PortConcurrency: 1}
	e := sim.NewEngine()
	f := New(4, cfg)
	var order []int
	for src := 1; src <= 3; src++ {
		src := src
		e.Spawn("sender", func(p *sim.Process) {
			p.Wait(float64(src) * 1e-6) // staggered, deterministic arrival order
			f.Send(p, src, 0, 100, src)
		})
	}
	e.Spawn("root", func(p *sim.Process) {
		p.Wait(1.0) // busy root: everything queues
		for i := 0; i < 3; i++ {
			order = append(order, f.Recv(p, 0).Payload.(int))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{1, 2, 3}) {
		t.Fatalf("drain order = %v, want arrival order [1 2 3]", order)
	}
	if f.Stats().PeakInboxDepth[0] != 3 {
		t.Fatalf("peak inbox = %d, want 3", f.Stats().PeakInboxDepth[0])
	}
}

func TestMetricsAndStats(t *testing.T) {
	reg := metrics.New()
	e := sim.NewEngine()
	f := New(2, DefaultConfig())
	f.SetMetrics(reg)
	e.Spawn("sender", func(p *sim.Process) {
		f.Send(p, 0, 1, 5000, nil)
		f.Send(p, 0, 1, 3000, nil)
	})
	e.Spawn("receiver", func(p *sim.Process) {
		f.Recv(p, 1)
		f.Recv(p, 1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("interchip.transfers").Value(); got != 2 {
		t.Fatalf("interchip.transfers = %g, want 2", got)
	}
	if got := reg.Counter("interchip.bytes").Value(); got != 8000 {
		t.Fatalf("interchip.bytes = %g, want 8000", got)
	}
	if got := reg.Counter("interchip.link.bytes", "link", "c0->c1").Value(); got != 8000 {
		t.Fatalf("link bytes = %g, want 8000", got)
	}
	st := f.Stats()
	if st.Transfers != 2 || st.Bytes != 8000 || st.LinkBytes[0][1] != 8000 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		e := sim.NewEngine()
		f := New(3, DefaultConfig())
		for src := 1; src <= 2; src++ {
			src := src
			e.Spawn("sender", func(p *sim.Process) {
				for i := 0; i < 5; i++ {
					f.Send(p, src, 0, 1000*src+i, i)
				}
			})
		}
		e.Spawn("root", func(p *sim.Process) {
			for i := 0; i < 10; i++ {
				f.Recv(p, 0)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return f.Stats()
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("fabric runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestBadUse(t *testing.T) {
	f := New(2, DefaultConfig())
	for name, fn := range map[string]func(){
		"self-send":  func() { f.Send(nil, 0, 0, 1, nil) },
		"bad-src":    func() { f.Send(nil, -1, 0, 1, nil) },
		"bad-dst":    func() { f.Recv(nil, 7) },
		"zero-chips": func() { New(0, DefaultConfig()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}
