package noc

import (
	"fmt"
	"strings"
	"testing"

	"rckalign/internal/metrics"
	"rckalign/internal/sim"
)

// TestMeshMetricsRecordTraffic: one transfer shows up in the global
// counters, the hop histogram and the per-link counters of every link on
// its XY route, without changing the transfer's timing.
func TestMeshMetricsRecordTraffic(t *testing.T) {
	run := func(reg *metrics.Registry) float64 {
		e := sim.NewEngine()
		m := New(DefaultConfig())
		m.SetMetrics(reg)
		var elapsed float64
		e.Spawn("x", func(p *sim.Process) {
			m.Transfer(p, Coord{0, 0}, Coord{2, 0}, 4096)
			elapsed = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	reg := metrics.New()
	instrumented := run(reg)
	if bare := run(nil); bare != instrumented {
		t.Errorf("metrics changed transfer timing: %v vs %v", instrumented, bare)
	}
	if got := reg.Counter("noc.transfers").Value(); got != 1 {
		t.Errorf("noc.transfers = %v", got)
	}
	if got := reg.Counter("noc.transfer.bytes").Value(); got != 4096 {
		t.Errorf("noc.transfer.bytes = %v", got)
	}
	if got := reg.Histogram("noc.transfer.hops", metrics.HopBuckets).Mean(); got != 2 {
		t.Errorf("mean hops = %v, want 2", got)
	}
	for _, link := range []string{"(0,0)->(1,0)", "(1,0)->(2,0)"} {
		if got := reg.Counter("noc.link.messages", "link", link).Value(); got != 1 {
			t.Errorf("link %s messages = %v, want 1", link, got)
		}
		if got := reg.Counter("noc.link.bytes", "link", link).Value(); got != 4096 {
			t.Errorf("link %s bytes = %v, want 4096", link, got)
		}
	}
	// Off-route links saw nothing.
	if got := reg.Counter("noc.link.messages", "link", "(3,0)->(4,0)").Value(); got != 0 {
		t.Errorf("off-route link counted %v messages", got)
	}
}

// TestMeshMetricsWaitAndSeries: two transfers fighting over one link
// record blocked time on it, and the links-active series rises to 2
// during the overlap. PublishMetrics mirrors per-link busy seconds.
func TestMeshMetricsWaitAndSeries(t *testing.T) {
	e := sim.NewEngine()
	m := New(DefaultConfig())
	reg := metrics.New()
	m.SetMetrics(reg)
	for i := 0; i < 2; i++ {
		e.Spawn("t", func(p *sim.Process) {
			m.Transfer(p, Coord{0, 0}, Coord{1, 0}, 64*1024)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("noc.link.wait_seconds", "link", "(0,0)->(1,0)").Value(); got <= 0 {
		t.Errorf("no contention wait recorded: %v", got)
	}
	var maxActive float64
	for _, p := range reg.Series("noc.links.active").Points() {
		if p.V > maxActive {
			maxActive = p.V
		}
	}
	if maxActive < 1 {
		t.Errorf("links-active series peaked at %v", maxActive)
	}
	m.PublishMetrics()
	if got := reg.Gauge("noc.link.busy_seconds", "link", "(0,0)->(1,0)").Value(); got <= 0 {
		t.Errorf("busy_seconds gauge = %v", got)
	}
}

// TestLinkHeatmapRender: the heatmap marks the used link with the peak
// digit and keeps unused links at 0, with the legend reporting the peak.
func TestLinkHeatmapRender(t *testing.T) {
	e := sim.NewEngine()
	m := New(DefaultConfig())
	e.Spawn("x", func(p *sim.Process) {
		m.Transfer(p, Coord{0, 0}, Coord{1, 0}, 64*1024)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	out := m.LinkHeatmap()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Router rows alternate with vertical-link rows: 4 rows of routers
	// on a 6x4 grid -> 7 grid lines plus the legend.
	if len(lines) != 8 {
		t.Fatalf("heatmap has %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "o 9 o") {
		t.Errorf("hottest link not 9: %q", lines[0])
	}
	if !strings.Contains(lines[7], "peak link busy:") {
		t.Errorf("legend missing: %q", lines[7])
	}
	grid := strings.Join(lines[:7], "\n")
	if strings.Count(grid, "9") != 1 {
		t.Errorf("expected exactly one peak digit:\n%s", out)
	}
}

// TestLinkHeatmapAllocatesOnce: the heatmap is rendered into one
// pre-sized buffer, legend included, and its legend is fmt's %.6g.
func TestLinkHeatmapAllocatesOnce(t *testing.T) {
	e := sim.NewEngine()
	m := New(DefaultConfig())
	e.Spawn("x", func(p *sim.Process) {
		m.Transfer(p, Coord{0, 0}, Coord{3, 2}, 77*1024)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("peak link busy: %.6gs\n", m.WorstLink().BusySeconds)
	if out := m.LinkHeatmap(); !strings.HasSuffix(out, want) {
		t.Errorf("legend of\n%s\nis not %q", out, want)
	}
	if n := testing.AllocsPerRun(10, func() { m.LinkHeatmap() }); n != 1 {
		t.Errorf("LinkHeatmap allocates %v times, want 1", n)
	}
}

// TestWorstLink: the busiest directed link is the one that carried the
// traffic.
func TestWorstLink(t *testing.T) {
	e := sim.NewEngine()
	m := New(DefaultConfig())
	e.Spawn("x", func(p *sim.Process) {
		m.Transfer(p, Coord{0, 0}, Coord{3, 0}, 64*1024)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	w := m.WorstLink()
	if w.BusySeconds <= 0 {
		t.Fatalf("worst link has no busy time: %+v", w)
	}
	if w.From.Y != 0 || w.To.Y != 0 {
		t.Errorf("worst link off the traffic row: %+v", w)
	}
}
