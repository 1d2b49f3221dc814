// Package noc models the SCC's packet-switched 2D mesh network-on-chip:
// XY dimension-order routing over a WxH router grid, per-hop latency, and
// per-link bandwidth with contention (links as FIFO resources, held
// store-and-forward: one link at a time for the whole message).
package noc

import (
	"fmt"
	"sort"
	"strings"

	"rckalign/internal/metrics"
	"rckalign/internal/sim"
)

// Coord is a router position in the mesh.
type Coord struct{ X, Y int }

// String renders the coordinate.
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Config describes the mesh geometry and timing.
type Config struct {
	// Width and Height of the router grid (SCC: 6x4).
	Width, Height int
	// HopSeconds is the router traversal + link latency per hop.
	HopSeconds float64
	// BytesPerSecond is the bandwidth of one mesh link.
	BytesPerSecond float64
}

// DefaultConfig returns the SCC mesh: 6x4 routers at 2 GHz with 4-cycle
// hops and 16-byte flits at 2 bytes/cycle per link.
func DefaultConfig() Config {
	return Config{
		Width:          6,
		Height:         4,
		HopSeconds:     4.0 / 2e9, // 4 mesh cycles @ 2 GHz
		BytesPerSecond: 3.2e9,     // ~2 bytes/cycle/link @ 2 GHz... conservative effective rate
	}
}

// Mesh is an instantiated network.
type Mesh struct {
	cfg Config
	// Directed links: right/left between horizontal neighbours, up/down
	// between vertical neighbours. links[r][d] leaves router r (row-major)
	// in direction d; nil where the mesh ends.
	links [][numDirs]*sim.Resource
	// paths[a*routers+b] lists the links of Route(a, b), in order.
	paths [][]link

	// Observability (nil/zero unless SetMetrics installed a registry).
	reg       *metrics.Registry
	labels    []string
	linkStats [][numDirs]*linkMetrics
	cXfers    *metrics.Counter
	cBytes    *metrics.Counter
	hHops     *metrics.Histogram
	sActive   *metrics.Series
	active    int
}

// Link directions, in the order links are built and reported.
const (
	east = iota
	west
	south
	north
	numDirs
)

// link names one directed link: it leaves router (row-major index) in
// direction dir.
type link struct {
	router, dir int
}

// steps maps a direction to its coordinate offset (row 0 is the top).
var steps = [numDirs]Coord{east: {1, 0}, west: {-1, 0}, south: {0, 1}, north: {0, -1}}

// ends returns the routers a link connects.
func (m *Mesh) ends(l link) (from, to Coord) {
	from = m.coord(l.router)
	return from, Coord{from.X + steps[l.dir].X, from.Y + steps[l.dir].Y}
}

// label renders a link as its metric label, "(x,y)->(x,y)".
func (m *Mesh) label(l link) string {
	from, to := m.ends(l)
	return fmt.Sprintf("%v->%v", from, to)
}

// eachLink calls fn for every directed link of the mesh, router by router
// in row-major order.
func (m *Mesh) eachLink(fn func(l link, res *sim.Resource)) {
	for r := range m.links {
		for d, res := range m.links[r] {
			if res != nil {
				fn(link{r, d}, res)
			}
		}
	}
}

// linkMetrics holds one directed link's instrument handles.
type linkMetrics struct {
	msgs  *metrics.Counter
	bytes *metrics.Counter
	wait  *metrics.Counter
}

// SetMetrics installs a metrics registry on the mesh. Per directed
// link it records message and byte counts plus accumulated
// queueing/contention wait (time transfers spent blocked on an occupied
// link); globally it records transfer counts, bytes, a hop-count
// histogram, and the "noc.links.active" time series (links held at each
// instant — the chrome-trace link-utilization counter track). All
// recording is passive: it consumes no simulated time and schedules no
// events.
//
// labels are optional extra key/value label pairs appended to every
// metric key (a multi-chip system scopes each mesh with "chip", "cN");
// none keeps the classic single-chip keys bit-identical.
func (m *Mesh) SetMetrics(reg *metrics.Registry, labels ...string) {
	m.reg = reg
	m.labels = append([]string(nil), labels...)
	m.cXfers = reg.Counter("noc.transfers", labels...)
	m.cBytes = reg.Counter("noc.transfer.bytes", labels...)
	m.hHops = reg.Histogram("noc.transfer.hops", metrics.HopBuckets, labels...)
	m.sActive = reg.Series("noc.links.active", labels...)
	m.linkStats = make([][numDirs]*linkMetrics, len(m.links))
	m.eachLink(func(l link, _ *sim.Resource) {
		ll := append(append([]string(nil), m.labels...), "link", m.label(l))
		m.linkStats[l.router][l.dir] = &linkMetrics{
			msgs:  reg.Counter("noc.link.messages", ll...),
			bytes: reg.Counter("noc.link.bytes", ll...),
			wait:  reg.Counter("noc.link.wait_seconds", ll...),
		}
	})
}

// PublishMetrics exports end-of-run per-link busy seconds as gauges
// ("noc.link.busy_seconds{link=...}"). Call once when the simulation has
// drained; a second call overwrites with the same values. No-op when
// SetMetrics was never called.
func (m *Mesh) PublishMetrics() {
	if m.reg == nil {
		return
	}
	m.eachLink(func(l link, res *sim.Resource) {
		ll := append(append([]string(nil), m.labels...), "link", m.label(l))
		m.reg.Gauge("noc.link.busy_seconds", ll...).Set(res.BusySeconds())
	})
}

// recordLinkTraffic attributes one message's bytes to every directed
// link on its route.
func (m *Mesh) recordLinkTraffic(path []link, bytes int) {
	if m.linkStats == nil {
		return
	}
	for _, l := range path {
		ls := m.linkStats[l.router][l.dir]
		ls.msgs.Inc()
		ls.bytes.Add(float64(bytes))
	}
}

// acquireTimed wraps Resource.Acquire, charging the blocked time to the
// link's contention-wait counter and maintaining the active-links
// series.
func (m *Mesh) acquireTimed(p *sim.Process, l link) {
	res := m.links[l.router][l.dir]
	if m.linkStats == nil {
		res.Acquire(p)
		return
	}
	t0 := p.Now()
	res.Acquire(p)
	m.linkStats[l.router][l.dir].wait.Add(p.Now() - t0)
	m.active++
	m.sActive.Append(p.Now(), float64(m.active))
}

// releaseTimed is the matching release for acquireTimed.
func (m *Mesh) releaseTimed(p *sim.Process, l link) {
	m.links[l.router][l.dir].Release(p)
	if m.linkStats == nil {
		return
	}
	m.active--
	m.sActive.Append(p.Now(), float64(m.active))
}

// New builds a mesh for the given engine (the engine pointer is not
// needed: resources are engine-agnostic) and configuration.
func New(cfg Config) *Mesh {
	if cfg.Width < 1 || cfg.Height < 1 {
		panic("noc: mesh must be at least 1x1")
	}
	routers := cfg.Width * cfg.Height
	m := &Mesh{cfg: cfg, links: make([][numDirs]*sim.Resource, routers), paths: make([][]link, routers*routers)}
	for r := range m.links {
		for d := 0; d < numDirs; d++ {
			if from, to := m.ends(link{r, d}); m.InBounds(to) {
				m.links[r][d] = sim.NewResource(fmt.Sprintf("link%v->%v", from, to), 1)
			}
		}
	}
	// Every route is walked once here, not once per transfer.
	for a := 0; a < routers; a++ {
		for b := 0; b < routers; b++ {
			cur := m.coord(a)
			route := m.Route(cur, m.coord(b))
			path := make([]link, len(route))
			for i, next := range route {
				path[i] = m.linkBetween(cur, next)
				cur = next
			}
			m.paths[a*routers+b] = path
		}
	}
	return m
}

// index is a router's row-major position, coord its inverse.
func (m *Mesh) index(c Coord) int { return c.Y*m.cfg.Width + c.X }
func (m *Mesh) coord(r int) Coord { return Coord{r % m.cfg.Width, r / m.cfg.Width} }

// linkBetween names the link from a router to its neighbour.
func (m *Mesh) linkBetween(from, to Coord) link {
	for d := 0; d < numDirs; d++ {
		if _, end := m.ends(link{m.index(from), d}); end == to {
			return link{m.index(from), d}
		}
	}
	panic("noc: routers are not neighbours")
}

// path returns the links of Route(a, b) from the table New built.
func (m *Mesh) path(a, b Coord) []link {
	if !m.InBounds(a) || !m.InBounds(b) {
		panic("noc: route endpoint outside mesh")
	}
	return m.paths[m.index(a)*len(m.links)+m.index(b)]
}

// Config returns the mesh configuration.
func (m *Mesh) Config() Config { return m.cfg }

// InBounds reports whether c is a valid router coordinate.
func (m *Mesh) InBounds(c Coord) bool {
	return c.X >= 0 && c.X < m.cfg.Width && c.Y >= 0 && c.Y < m.cfg.Height
}

// Route returns the XY dimension-order route from a to b, excluding a and
// including b. Routing goes along X first, then Y (deadlock-free on a
// mesh).
func (m *Mesh) Route(a, b Coord) []Coord {
	if !m.InBounds(a) || !m.InBounds(b) {
		panic("noc: route endpoint outside mesh")
	}
	var route []Coord
	cur := a
	for cur.X != b.X {
		if b.X > cur.X {
			cur.X++
		} else {
			cur.X--
		}
		route = append(route, cur)
	}
	for cur.Y != b.Y {
		if b.Y > cur.Y {
			cur.Y++
		} else {
			cur.Y--
		}
		route = append(route, cur)
	}
	return route
}

// Hops returns the XY hop count between two routers.
func (m *Mesh) Hops(a, b Coord) int {
	dx := a.X - b.X
	if dx < 0 {
		dx = -dx
	}
	dy := a.Y - b.Y
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Transfer moves `bytes` from a to b within process p, consuming
// simulated time: store-and-forward, it occupies each directed link on
// the route for the hop latency plus the whole message's serialisation,
// in order. (The SCC itself switches wormhole; every calibrated number
// here was measured with this model.)
func (m *Mesh) Transfer(p *sim.Process, a, b Coord, bytes int) {
	if bytes <= 0 {
		bytes = 1
	}
	m.cXfers.Inc()
	m.cBytes.Add(float64(bytes))
	m.hHops.Observe(float64(m.Hops(a, b)))
	route := m.path(a, b)
	m.recordLinkTraffic(route, bytes)
	ser := float64(bytes) / m.cfg.BytesPerSecond
	if len(route) == 0 {
		// Same router (e.g. both cores on one tile): local MIU copy.
		p.Wait(m.cfg.HopSeconds + ser)
		return
	}
	for _, l := range route {
		m.acquireTimed(p, l)
		p.Wait(m.cfg.HopSeconds + ser)
		m.releaseTimed(p, l)
	}
}

// LinkLoad describes one directed link's accumulated traffic.
type LinkLoad struct {
	From, To    Coord
	BusySeconds float64
}

// TopLinks returns the n busiest directed links, most loaded first —
// the mesh hot-spot analysis. Ties break deterministically by
// coordinate.
func (m *Mesh) TopLinks(n int) []LinkLoad {
	loads := make([]LinkLoad, 0, numDirs*len(m.links))
	m.eachLink(func(l link, res *sim.Resource) {
		from, to := m.ends(l)
		loads = append(loads, LinkLoad{From: from, To: to, BusySeconds: res.BusySeconds()})
	})
	sort.Slice(loads, func(a, b int) bool {
		if loads[a].BusySeconds != loads[b].BusySeconds {
			return loads[a].BusySeconds > loads[b].BusySeconds
		}
		if loads[a].From != loads[b].From {
			return less(loads[a].From, loads[b].From)
		}
		return less(loads[a].To, loads[b].To)
	})
	if n > len(loads) {
		n = len(loads)
	}
	return loads[:n]
}

// WorstLink returns the single busiest directed link (zero value when
// the mesh has no links, e.g. a 1x1 grid).
func (m *Mesh) WorstLink() LinkLoad {
	top := m.TopLinks(1)
	if len(top) == 0 {
		return LinkLoad{}
	}
	return top[0]
}

func less(a, b Coord) bool {
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.X < b.X
}

// LinkHeatmap renders per-link busy time as a text grid: routers are
// 'o', the digit between two routers is that link pair's busy seconds
// (the busier of the two directions) normalised to the hottest link,
// 0-9. Horizontal links sit between routers on router rows; vertical
// links sit on the rows between. A trailing legend line reports the
// peak, so digits are readable as absolute time too. This is the
// paper's mesh-contention view at link rather than router granularity.
func (m *Mesh) LinkHeatmap() string {
	peak := 0.0
	// pairBusy returns the busier direction of the a<->b link pair.
	pairBusy := func(a, b Coord) float64 {
		if !m.InBounds(a) || !m.InBounds(b) {
			return 0
		}
		busy := 0.0
		for _, l := range [2]link{m.linkBetween(a, b), m.linkBetween(b, a)} {
			busy = max(busy, m.links[l.router][l.dir].BusySeconds())
		}
		return busy
	}
	for y := 0; y < m.cfg.Height; y++ {
		for x := 0; x < m.cfg.Width; x++ {
			c := Coord{x, y}
			for _, n := range []Coord{{x + 1, y}, {x, y + 1}} {
				if b := pairBusy(c, n); b > peak {
					peak = b
				}
			}
		}
	}
	digit := func(busy float64) byte {
		if peak <= 0 {
			return '0'
		}
		return '0' + byte(9*busy/peak)
	}
	var b strings.Builder
	for y := 0; y < m.cfg.Height; y++ {
		for x := 0; x < m.cfg.Width; x++ {
			if x > 0 {
				b.WriteByte(' ')
				b.WriteByte(digit(pairBusy(Coord{x - 1, y}, Coord{x, y})))
				b.WriteByte(' ')
			}
			b.WriteByte('o')
		}
		b.WriteByte('\n')
		if y == m.cfg.Height-1 {
			break
		}
		for x := 0; x < m.cfg.Width; x++ {
			if x > 0 {
				b.WriteString("   ")
			}
			b.WriteByte(digit(pairBusy(Coord{x, y}, Coord{x, y + 1})))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "peak link busy: %.6gs\n", peak)
	return b.String()
}
