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
	m := New(DefaultConfig())
	a := Coord{0, 0}
	if m.LatencySeconds(a, Coord{1, 0}, 100) >= m.LatencySeconds(a, Coord{1, 0}, 10000) {
		t.Error("latency not increasing with bytes")
	}
	if m.LatencySeconds(a, Coord{1, 0}, 1000) >= m.LatencySeconds(a, Coord{5, 3}, 1000) {
		t.Error("latency not increasing with hops")
	}
	// Same-router transfer still costs something.
	if m.LatencySeconds(a, a, 1000) <= 0 {
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

func TestNoContentionMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ModelContention = false
	e := sim.NewEngine()
	m := New(cfg)
	var t1, t2 float64
	e.Spawn("a", func(p *sim.Process) { m.Transfer(p, Coord{0, 0}, Coord{1, 0}, 64*1024); t1 = p.Now() })
	e.Spawn("b", func(p *sim.Process) { m.Transfer(p, Coord{0, 0}, Coord{1, 0}, 64*1024); t2 = p.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Errorf("without contention both transfers should finish together: %v vs %v", t1, t2)
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
	if top := m.TopLinks(1); top[0].BusySeconds <= 0 {
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

func TestTopLinksAndHeatmap(t *testing.T) {
	e := sim.NewEngine()
	m := New(DefaultConfig())
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
	top := m.TopLinks(3)
	if len(top) != 3 {
		t.Fatalf("top = %v", top)
	}
	if top[0].From != (Coord{0, 0}) || top[0].To != (Coord{1, 0}) {
		t.Errorf("hottest link = %v", top[0])
	}
	if top[0].BusySeconds <= top[1].BusySeconds-1e-12 {
		t.Error("top links not sorted")
	}
	// Asking for more links than exist is clamped.
	all := m.TopLinks(10_000)
	if len(all) != 2*((6-1)*4+(4-1)*6) {
		t.Errorf("total directed links = %d", len(all))
	}
	if hm := m.LinkHeatmap(); !strings.HasPrefix(hm, "o 9 o") {
		t.Errorf("hot link not marked:\n%s", hm)
	}
}

func TestWormholeFasterThanStoreAndForward(t *testing.T) {
	measure := func(wormhole bool) float64 {
		cfg := DefaultConfig()
		cfg.Wormhole = wormhole
		e := sim.NewEngine()
		m := New(cfg)
		var done float64
		e.Spawn("x", func(p *sim.Process) {
			m.Transfer(p, Coord{0, 0}, Coord{5, 3}, 256*1024)
			done = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	snf := measure(false)
	wh := measure(true)
	// 8 hops store-and-forward pays serialisation per hop; wormhole once.
	if wh >= snf {
		t.Errorf("wormhole (%v) should beat store-and-forward (%v) across 8 hops", wh, snf)
	}
	if snf < 6*wh {
		t.Errorf("expected ~8x gap, got %v vs %v", snf, wh)
	}
}

func TestWormholeContentionNoDeadlock(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Wormhole = true
	e := sim.NewEngine()
	m := New(cfg)
	// Many crossing transfers: XY-ordered acquisition must not deadlock.
	done := 0
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30; i++ {
		a := Coord{rng.Intn(6), rng.Intn(4)}
		b := Coord{rng.Intn(6), rng.Intn(4)}
		e.Spawn("t", func(p *sim.Process) {
			m.Transfer(p, a, b, 32*1024)
			done++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 30 {
		t.Errorf("completed %d of 30 transfers", done)
	}
}
