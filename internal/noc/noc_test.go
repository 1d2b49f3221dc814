package noc

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"rckalign/internal/sim"
)

func TestHops(t *testing.T) {
	m := New(DefaultConfig())
	cases := []struct {
		a, b Coord
		want int
	}{
		{Coord{0, 0}, Coord{0, 0}, 0},
		{Coord{0, 0}, Coord{5, 3}, 8},
		{Coord{2, 1}, Coord{2, 3}, 2},
		{Coord{5, 0}, Coord{0, 0}, 5},
	}
	for _, c := range cases {
		if got := m.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestHopsSymmetricProperty(t *testing.T) {
	m := New(DefaultConfig())
	f := func(ax, ay, bx, by uint8) bool {
		a := Coord{int(ax) % 6, int(ay) % 4}
		b := Coord{int(bx) % 6, int(by) % 4}
		return m.Hops(a, b) == m.Hops(b, a) && m.Hops(a, b) == len(m.Route(a, b))
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRouteXYOrder(t *testing.T) {
	m := New(DefaultConfig())
	route := m.Route(Coord{1, 1}, Coord{4, 3})
	want := []Coord{{2, 1}, {3, 1}, {4, 1}, {4, 2}, {4, 3}}
	if len(route) != len(want) {
		t.Fatalf("route = %v", route)
	}
	for i := range want {
		if route[i] != want[i] {
			t.Fatalf("route = %v, want %v", route, want)
		}
	}
}

func TestRouteAdjacentSteps(t *testing.T) {
	m := New(DefaultConfig())
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		a := Coord{rng.Intn(6), rng.Intn(4)}
		b := Coord{rng.Intn(6), rng.Intn(4)}
		cur := a
		for _, next := range m.Route(a, b) {
			if m.Hops(cur, next) != 1 {
				t.Fatalf("non-adjacent step %v -> %v", cur, next)
			}
			cur = next
		}
		if cur != b {
			t.Fatalf("route from %v to %v ends at %v", a, b, cur)
		}
	}
}

func TestRouteOutOfBoundsPanics(t *testing.T) {
	m := New(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.Route(Coord{0, 0}, Coord{9, 9})
}

func TestLatencyMonotonicInBytesAndHops(t *testing.T) {
	latency := func(b Coord, bytes int) float64 {
		e := sim.NewEngine()
		m := New(DefaultConfig())
		var done float64
		e.Spawn("xfer", func(p *sim.Process) {
			m.Transfer(p, Coord{0, 0}, b, bytes)
			done = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	if latency(Coord{1, 0}, 100) >= latency(Coord{1, 0}, 10000) {
		t.Error("latency not increasing with bytes")
	}
	if latency(Coord{1, 0}, 1000) >= latency(Coord{5, 3}, 1000) {
		t.Error("latency not increasing with hops")
	}
	// Same-router transfer still costs something.
	if latency(Coord{0, 0}, 1000) <= 0 {
		t.Error("same-tile transfer should cost time")
	}
}

func TestTransferTakesTime(t *testing.T) {
	e := sim.NewEngine()
	m := New(DefaultConfig())
	var elapsed float64
	e.Spawn("xfer", func(p *sim.Process) {
		m.Transfer(p, Coord{0, 0}, Coord{5, 3}, 8192)
		elapsed = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Error("transfer consumed no simulated time")
	}
	// 8 KB across the chip should be microseconds, not milliseconds.
	if elapsed > 1e-3 {
		t.Errorf("transfer took %v s, implausibly slow", elapsed)
	}
}

func TestTransferContention(t *testing.T) {
	// Two transfers over the same single link must serialise; disjoint
	// transfers must not.
	cfg := DefaultConfig()
	runPair := func(b1, b2 [2]Coord) float64 {
		e := sim.NewEngine()
		m := New(cfg)
		var last float64
		for i, pair := range [][2]Coord{b1, b2} {
			pair := pair
			e.Spawn("t", func(p *sim.Process) {
				_ = i
				m.Transfer(p, pair[0], pair[1], 64*1024)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	shared := runPair([2]Coord{{0, 0}, {1, 0}}, [2]Coord{{0, 0}, {1, 0}})
	disjoint := runPair([2]Coord{{0, 0}, {1, 0}}, [2]Coord{{4, 3}, {5, 3}})
	if shared <= disjoint*1.5 {
		t.Errorf("shared-link transfers (%v) should be much slower than disjoint (%v)", shared, disjoint)
	}
}

func TestLinkUtilizationAccounted(t *testing.T) {
	e := sim.NewEngine()
	m := New(DefaultConfig())
	e.Spawn("x", func(p *sim.Process) {
		m.Transfer(p, Coord{0, 0}, Coord{3, 0}, 4096)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if m.WorstLink().BusySeconds <= 0 {
		t.Error("no link utilisation recorded")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for 0x0 mesh")
		}
	}()
	New(Config{Width: 0, Height: 0})
}

// TestWorstLinkAndHeatmap: the hammered link is the worst and the
// heatmap's peak digit; equal busy times go to the lowest From, then the
// lowest To, whatever order the scan meets them in.
func TestWorstLinkAndHeatmap(t *testing.T) {
	e := sim.NewEngine()
	m := New(DefaultConfig())
	if w := m.WorstLink(); w != (LinkLoad{From: Coord{0, 0}, To: Coord{1, 0}}) {
		t.Errorf("idle mesh: worst link = %+v, want (0,0)->(1,0) at 0 s", w)
	}
	// Hammer one link with several long transfers.
	for i := 0; i < 4; i++ {
		e.Spawn("x", func(p *sim.Process) {
			m.Transfer(p, Coord{0, 0}, Coord{1, 0}, 128*1024)
		})
	}
	e.Spawn("y", func(p *sim.Process) {
		m.Transfer(p, Coord{4, 3}, Coord{5, 3}, 1024)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if w := m.WorstLink(); w.From != (Coord{0, 0}) || w.To != (Coord{1, 0}) || w.BusySeconds <= 0 {
		t.Errorf("hottest link = %+v", w)
	}
	if hm := m.LinkHeatmap(); !strings.HasPrefix(hm, "o 9 o") {
		t.Errorf("hot link not marked:\n%s", hm)
	}

	// Two links out of (1,1) with the same traffic: the scan meets east
	// before west, and the tie goes to the lower To, (0,1).
	e, m = sim.NewEngine(), New(DefaultConfig())
	for _, to := range []Coord{{2, 1}, {0, 1}} {
		e.Spawn("tie", func(p *sim.Process) {
			m.Transfer(p, Coord{1, 1}, to, 4096)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if w := m.WorstLink(); w.From != (Coord{1, 1}) || w.To != (Coord{0, 1}) || w.BusySeconds <= 0 {
		t.Errorf("tie: worst link = %+v, want (1,1)->(0,1)", w)
	}
}
