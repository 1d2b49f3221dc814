// Package interchip models the board-level interconnect that joins
// several SCC chips into one system — the tier above the on-chip mesh
// (internal/noc). The SCC's own scale-out story was exactly this shape:
// chips on a board linked through the system interface FPGA, orders of
// magnitude slower than the 2D mesh. The model is deliberately simple
// and deterministic: a message from chip s to chip d occupies s's
// egress port and d's ingress port for latency + bytes/bandwidth
// seconds (circuit-switched, like the SIF's PCIe-style link), then
// lands in d's inbox queue asynchronously — the receiver pulls it
// whenever it next polls, paying a fixed per-message handling cost.
// Delivery is a sim.Queue, so a busy root master never blocks a
// sub-master's send; the growing inbox depth is itself the signal for
// "where the single master breaks".
package interchip

import (
	"fmt"
	"strings"

	"rckalign/internal/metrics"
	"rckalign/internal/sim"
)

// Config is the interconnect cost profile. The zero value is invalid;
// use DefaultConfig (or a named Profile) and override fields.
type Config struct {
	// LatencySeconds is the fixed per-message link latency (protocol +
	// flight time), charged once per Send.
	LatencySeconds float64
	// BytesPerSecond is the link bandwidth used for the serialization
	// term bytes/BytesPerSecond.
	BytesPerSecond float64
	// RecvSeconds is the fixed per-message receive handling cost (DMA
	// completion, demux) charged to the receiving process on Recv.
	RecvSeconds float64
	// PortConcurrency is the number of simultaneous transfers each
	// chip-side port (egress and ingress separately) sustains; <= 0
	// means 1. With 1 (the default) a chip's outbound sends serialize,
	// and so do the arrivals into one chip — the root-ingress contention
	// this model exists to expose.
	PortConcurrency int
}

// DefaultConfig returns the "board" profile: chips on one carrier board
// behind a PCIe-generation-2-class system interface. ~2 µs latency and
// 1.6 GB/s are three orders of magnitude off the mesh's per-hop
// nanoseconds and 3.2 GB/s links, which is the point of modelling the
// tier separately.
func DefaultConfig() Config {
	return Config{
		LatencySeconds:  2e-6,
		BytesPerSecond:  1.6e9,
		RecvSeconds:     0.5e-6,
		PortConcurrency: 1,
	}
}

// Profiles with documented CLI names (-interchip board|cluster|ideal).
//
//   - board:   DefaultConfig — same-board system interface.
//   - cluster: commodity-network numbers (50 µs, 1.25 GB/s ≈ 10 GbE) —
//     chips in separate hosts.
//   - ideal:   free transport (zero latency, effectively infinite
//     bandwidth, no port contention) — isolates the protocol/topology
//     effects from the wire cost.
func Profile(name string) (Config, error) {
	switch strings.ToLower(name) {
	case "board":
		return DefaultConfig(), nil
	case "cluster":
		return Config{LatencySeconds: 50e-6, BytesPerSecond: 1.25e9, RecvSeconds: 2e-6, PortConcurrency: 1}, nil
	case "ideal":
		return Config{LatencySeconds: 0, BytesPerSecond: 1e18, RecvSeconds: 0, PortConcurrency: 1 << 20}, nil
	}
	return Config{}, fmt.Errorf("interchip: unknown profile %q (board, cluster, ideal)", name)
}

// String renders the profile compactly for reports and -help examples.
func (c Config) String() string {
	return fmt.Sprintf("lat=%g,bw=%g,recv=%g,ports=%d", c.LatencySeconds, c.BytesPerSecond, c.RecvSeconds, c.ports())
}

func (c Config) ports() int {
	if c.PortConcurrency < 1 {
		return 1
	}
	return c.PortConcurrency
}

// TransferSeconds is the port-occupancy time of one message (latency +
// serialization), excluding queueing.
func (c Config) TransferSeconds(bytes int) float64 {
	return c.LatencySeconds + float64(bytes)/c.BytesPerSecond
}

// Message is one inter-chip transfer as seen by the receiver.
type Message struct {
	Src, Dst int
	Bytes    int
	Payload  any
	// SentAt is the simulated time the sender entered Send (before any
	// port queueing); ArrivedAt is when the message landed in the
	// destination inbox.
	SentAt    float64
	ArrivedAt float64
}

// Stats is the fabric's cumulative accounting, available without a
// metrics registry (Report blocks are built from it).
type Stats struct {
	// Transfers and Bytes count every completed Send.
	Transfers int64
	Bytes     int64
	// SendWaitSeconds is the total time senders spent queued for an
	// egress or ingress port (pure contention, excluded from the
	// transfer term itself).
	SendWaitSeconds float64
	// PeakInboxDepth[d] is the deepest chip d's inbox ever got.
	PeakInboxDepth []int
	// InboxMessages[d] counts every message delivered into chip d's
	// inbox — for the root (d = 0) this is the number of inbound flows
	// the gather topology actually produced, independent of how deep
	// the inbox got at any instant.
	InboxMessages []int64
	// LinkBytes[s][d] is the per-directed-pair byte volume.
	LinkBytes [][]int64
}

// Fabric is an instantiated interconnect between n chips.
type Fabric struct {
	cfg     Config
	n       int
	egress  []*sim.Resource
	ingress []*sim.Resource
	inbox   []*sim.Queue

	stats Stats

	// Observability handles, nil unless SetMetrics installed a registry.
	reg       *metrics.Registry
	cXfers    *metrics.Counter
	cBytes    *metrics.Counter
	cWait     *metrics.Counter
	hMsgBytes *metrics.Histogram
	linkBytes [][]*metrics.Counter
	sInbox    []*metrics.Series
	gInbox    []*metrics.Gauge
}

// New builds a fabric joining n chips (n >= 1).
func New(n int, cfg Config) *Fabric {
	if n < 1 {
		panic("interchip: fabric needs at least one chip")
	}
	f := &Fabric{cfg: cfg, n: n}
	f.egress = make([]*sim.Resource, n)
	f.ingress = make([]*sim.Resource, n)
	f.inbox = make([]*sim.Queue, n)
	for c := 0; c < n; c++ {
		f.egress[c] = sim.NewResource(fmt.Sprintf("interchip.egress.c%d", c), cfg.ports())
		f.ingress[c] = sim.NewResource(fmt.Sprintf("interchip.ingress.c%d", c), cfg.ports())
		f.inbox[c] = sim.NewQueue(fmt.Sprintf("interchip.inbox.c%d", c))
	}
	f.stats.PeakInboxDepth = make([]int, n)
	f.stats.InboxMessages = make([]int64, n)
	f.stats.LinkBytes = make([][]int64, n)
	for c := range f.stats.LinkBytes {
		f.stats.LinkBytes[c] = make([]int64, n)
	}
	return f
}

// Config returns the interconnect profile.
func (f *Fabric) Config() Config { return f.cfg }

// SetMetrics installs a metrics registry: every Send records transfer
// count, bytes, a size histogram and port-queueing wait
// ("interchip.transfers", "interchip.bytes", "interchip.message.bytes",
// "interchip.send.wait_seconds"), per directed chip pair the byte
// volume ("interchip.link.bytes{link=c0->c1}"), and per chip an
// inbox-depth time series with its peak as a gauge
// ("interchip.inbox_depth{chip=cN}", "interchip.inbox_peak{chip=cN}").
// Passive — no simulated time is consumed. Passing nil disables
// recording again.
func (f *Fabric) SetMetrics(reg *metrics.Registry) {
	f.reg = reg
	f.cXfers = reg.Counter("interchip.transfers")
	f.cBytes = reg.Counter("interchip.bytes")
	f.cWait = reg.Counter("interchip.send.wait_seconds")
	f.hMsgBytes = reg.Histogram("interchip.message.bytes", metrics.SizeBuckets)
	if reg == nil {
		f.linkBytes, f.sInbox, f.gInbox = nil, nil, nil
		return
	}
	f.linkBytes = make([][]*metrics.Counter, f.n)
	f.sInbox = make([]*metrics.Series, f.n)
	f.gInbox = make([]*metrics.Gauge, f.n)
	for s := 0; s < f.n; s++ {
		f.linkBytes[s] = make([]*metrics.Counter, f.n)
		for d := 0; d < f.n; d++ {
			if s != d {
				f.linkBytes[s][d] = reg.Counter("interchip.link.bytes", "link", fmt.Sprintf("c%d->c%d", s, d))
			}
		}
		chip := fmt.Sprintf("c%d", s)
		f.sInbox[s] = reg.Series("interchip.inbox_depth", "chip", chip)
		f.gInbox[s] = reg.Gauge("interchip.inbox_peak", "chip", chip)
	}
}

func (f *Fabric) checkChip(c int) {
	if c < 0 || c >= f.n {
		panic(fmt.Sprintf("interchip: chip %d out of range [0,%d)", c, f.n))
	}
}

// Send moves bytes of payload from chip src to chip dst inside process
// p (the sending master/sub-master). The sender holds src's egress and
// dst's ingress port for the transfer time and then proceeds; delivery
// into dst's inbox is asynchronous, so a slow receiver inflates its
// inbox depth, never the sender.
func (f *Fabric) Send(p *sim.Process, src, dst, bytes int, payload any) {
	f.checkChip(src)
	f.checkChip(dst)
	if src == dst {
		panic(fmt.Sprintf("interchip: chip %d sending to itself (intra-chip traffic belongs on the mesh)", src))
	}
	if bytes < 1 {
		bytes = 1
	}
	sentAt := p.Now()
	// Egress before ingress, always: egress.cS is only ever wanted by
	// chip S's own sends, so no hold-and-wait cycle can form between the
	// two resource classes.
	f.egress[src].Acquire(p)
	f.ingress[dst].Acquire(p)
	wait := p.Now() - sentAt
	p.Wait(f.cfg.TransferSeconds(bytes))
	f.ingress[dst].Release(p)
	f.egress[src].Release(p)

	f.stats.Transfers++
	f.stats.Bytes += int64(bytes)
	f.stats.SendWaitSeconds += wait
	f.stats.LinkBytes[src][dst] += int64(bytes)
	f.cXfers.Inc()
	f.cBytes.Add(float64(bytes))
	f.cWait.Add(wait)
	f.hMsgBytes.Observe(float64(bytes))
	if f.linkBytes != nil {
		f.linkBytes[src][dst].Add(float64(bytes))
	}

	f.inbox[dst].Put(Message{
		Src: src, Dst: dst, Bytes: bytes, Payload: payload,
		SentAt: sentAt, ArrivedAt: p.Now(),
	})
	f.stats.InboxMessages[dst]++
	f.noteInbox(dst, p.Now())
}

// Recv returns the next message addressed to chip dst, blocking p until
// one arrives and charging the fixed per-message handling cost.
func (f *Fabric) Recv(p *sim.Process, dst int) Message {
	f.checkChip(dst)
	m := f.inbox[dst].Get(p).(Message)
	f.noteInbox(dst, p.Now())
	if f.cfg.RecvSeconds > 0 {
		p.Wait(f.cfg.RecvSeconds)
	}
	return m
}

// noteInbox samples chip dst's inbox depth into the stats/metrics after
// a put or get.
func (f *Fabric) noteInbox(dst int, now float64) {
	depth := f.inbox[dst].Len()
	if depth > f.stats.PeakInboxDepth[dst] {
		f.stats.PeakInboxDepth[dst] = depth
	}
	if f.sInbox != nil {
		f.sInbox[dst].Append(now, float64(depth))
		f.gInbox[dst].Max(float64(depth))
	}
}

// Stats returns a copy of the fabric's cumulative accounting.
func (f *Fabric) Stats() Stats {
	out := f.stats
	out.PeakInboxDepth = append([]int(nil), f.stats.PeakInboxDepth...)
	out.InboxMessages = append([]int64(nil), f.stats.InboxMessages...)
	out.LinkBytes = make([][]int64, f.n)
	for c := range out.LinkBytes {
		out.LinkBytes[c] = append([]int64(nil), f.stats.LinkBytes[c]...)
	}
	return out
}
