// Package rcce is a simulation-backed analogue of Intel's RCCE library,
// the "small library for many-core communication" that the paper's
// rckskel builds on: blocking point-to-point Send/Recv between SCC cores
// and a whole-chip barrier. Large messages are chunked through the 8 KB
// per-core share of the tile MPBs and each chunk crosses the simulated
// mesh, so transfer times depend on message size, hop distance and link
// contention exactly as the hardware's would.
//
// For fault injection, an optional Interposer observes every message at
// the wire and may drop, delay or corrupt it. The wire model carries a
// per-chunk checksum (folded into the chunk protocol overhead), so a
// corrupted message arrives with its Corrupt flag raised — detectable by
// the receiver, exactly like a checksum mismatch on hardware.
package rcce

import (
	"fmt"
	"math"

	"rckalign/internal/metrics"
	"rckalign/internal/scc"
	"rckalign/internal/sim"
)

// Message is what travels between cores: an opaque payload plus its
// modelled wire size.
type Message struct {
	Src, Dst int
	Bytes    int
	Payload  any
	// SentAt is the simulated time the sender entered Send — the moment
	// its ready flag went up. Receivers use it to attribute how long a
	// message sat waiting for them (the master-mailbox collect-wait).
	SentAt float64
	// Corrupt marks a payload damaged on the wire; the receiver detects
	// it via the chunk checksums (the payload itself is preserved in the
	// simulation, only the flag is raised).
	Corrupt bool
}

// transfer is a message on the wire: what the sender hands the receiver
// at rendezvous. Transfers are recycled through their Comm's free list.
type transfer struct {
	msg Message
	// done fires when the chunked transfer completes; the receiver joins
	// it. A latch (not a rendezvous) so a sender never blocks on a
	// receiver that died or stalled mid-transfer.
	done sim.Latch
	// refs counts the sides still holding the transfer: the sender until
	// it has set done (or dropped the message), the receiver until it has
	// copied the message out (or given up waiting). A side whose process
	// dies holding it never lets go, leaving the transfer to the collector.
	refs int
}

// Outcome is an Interposer's verdict on one message.
type Outcome struct {
	// Drop discards the message on the wire: the sender still pays the
	// staging and transfer cost, but no receiver ever sees it.
	Drop bool
	// DelaySeconds adds transfer latency (congestion, retransmits).
	DelaySeconds float64
	// Corrupt delivers the message with its checksum flag raised.
	Corrupt bool
}

// Interposer observes every Send at the wire, before delivery. It runs
// inside the sending process's context and must not block.
type Interposer interface {
	Deliver(p *sim.Process, m *Message) Outcome
}

// Comm provides RCCE-style communication on one chip.
type Comm struct {
	chip *scc.Chip
	// pairs[src*NumCores+dst] carries the transfer (message plus
	// completion latch) from src to dst at rendezvous; built on first use.
	pairs []*sim.Chan
	// inter, when non-nil, is consulted for every Send.
	inter Interposer
	// free holds transfers both sides have released.
	free []*transfer
	// chunk is the RCCE chunk size (each core's MPB share) and
	// chunkOverhead the per-chunk protocol cost beyond raw transfer: MPB
	// flag write + test&set round trip plus the chunk checksum, a few
	// hundred core cycles.
	chunk         int
	chunkOverhead float64

	// sentMsgs and sentBytes count every Send, dropped ones included,
	// with or without a registry.
	sentMsgs, sentBytes int64

	// Observability (nil unless SetMetrics installed a registry).
	reg       *metrics.Registry
	labels    []string
	hMsgBytes *metrics.Histogram
	coreSent  map[int]*metrics.Counter
	coreRecv  map[int]*metrics.Counter
}

// SetMetrics installs a metrics registry: every Send records a size
// histogram ("rcce.message.bytes") and per-core sent/received byte
// volumes ("rcce.core.sent_bytes{core=rckNN}" and
// "rcce.core.recv_bytes{core=rckNN}"), and PublishMetrics copies the
// comm's own counts in. Passive — no simulated time is consumed.
//
// labels are optional extra key/value label pairs appended to every
// fixed metric key (a multi-chip system scopes each comm with "chip",
// "cN"); the per-core keys are already distinct through the chip's core
// name prefix. No labels keeps the classic keys bit-identical.
func (c *Comm) SetMetrics(reg *metrics.Registry, labels ...string) {
	c.reg, c.labels = reg, labels
	c.hMsgBytes = reg.Histogram("rcce.message.bytes", metrics.SizeBuckets, labels...)
	c.coreSent = make(map[int]*metrics.Counter, c.chip.NumCores())
	c.coreRecv = make(map[int]*metrics.Counter, c.chip.NumCores())
	for core := 0; core < c.chip.NumCores(); core++ {
		name := c.chip.CoreName(core)
		c.coreSent[core] = reg.Counter("rcce.core.sent_bytes", "core", name)
		c.coreRecv[core] = reg.Counter("rcce.core.recv_bytes", "core", name)
	}
}

// SentBytes returns the wire bytes of every Send so far.
func (c *Comm) SentBytes() int64 { return c.sentBytes }

// PublishMetrics writes the comm's counts into the registry SetMetrics
// installed ("rcce.send.messages", "rcce.send.bytes"). Call once, when
// the simulation has drained; no-op without a registry.
func (c *Comm) PublishMetrics() {
	if c.reg == nil {
		return
	}
	c.reg.Counter("rcce.send.messages", c.labels...).Add(float64(c.sentMsgs))
	c.reg.Counter("rcce.send.bytes", c.labels...).Add(float64(c.sentBytes))
}

// New builds a Comm for the chip.
func New(chip *scc.Chip) *Comm {
	cfg := chip.Config()
	return &Comm{chip: chip, pairs: make([]*sim.Chan, chip.NumCores()*chip.NumCores()), chunk: cfg.MPBPerCore(), chunkOverhead: 600 / cfg.CPU.FreqHz}
}

// Chip returns the underlying chip.
func (c *Comm) Chip() *scc.Chip { return c.chip }

// SetInterposer installs the wire-fault interposer (nil = perfect wire).
func (c *Comm) SetInterposer(i Interposer) { c.inter = i }

func (c *Comm) pair(src, dst int) *sim.Chan {
	k := src*c.chip.NumCores() + dst
	if c.pairs[k] == nil {
		c.pairs[k] = sim.NewChan(fmt.Sprintf("rcce.req.%d->%d", src, dst))
	}
	return c.pairs[k]
}

// transferChunks drives the chunked MPB transfer of bytes across the
// mesh from within process p.
func (c *Comm) transferChunks(p *sim.Process, src, dst, bytes int) {
	remaining := bytes
	for remaining > 0 {
		n := min(remaining, c.chunk)
		c.chip.Transfer(p, src, dst, n)
		p.Wait(c.chunkOverhead)
		remaining -= n
	}
}

// Send transmits a message from core src (the calling process) to core
// dst, blocking until the receiver has taken delivery (RCCE_send
// semantics: synchronous, rendezvous). Under an interposer, a dropped
// message costs the sender the full staging and transfer time but never
// reaches a receiver, and the sender does not wait for one.
func (c *Comm) Send(p *sim.Process, src, dst, bytes int, payload any) {
	if bytes < 1 {
		bytes = 1
	}
	t := c.newTransfer()
	t.msg = Message{Src: src, Dst: dst, Bytes: bytes, Payload: payload, SentAt: p.Now()}
	c.sentMsgs++
	c.sentBytes += int64(bytes)
	c.hMsgBytes.Observe(float64(bytes))
	c.coreSent[src].Add(float64(bytes))
	var out Outcome
	if c.inter != nil {
		out = c.inter.Deliver(p, &t.msg)
	}
	if out.Drop {
		// The bits leave the sender and cross the mesh, then vanish
		// (dead destination, or discarded by a faulty link).
		c.chip.MemAccess(p, src, bytes)
		c.transferChunks(p, src, dst, bytes)
		c.release(t)
		return
	}
	t.msg.Corrupt = t.msg.Corrupt || out.Corrupt
	p.SetBlockDetail("rcce send %d->%d (%d bytes)", src, dst, bytes)
	t.refs++ // the receiver's
	c.pair(src, dst).Send(p, t)
	// Rendezvous reached: the receiver is joined on the message's done
	// latch. The sender stages the payload out of its DRAM (through its
	// quadrant's iMC), then drives the chunked MPB transfer.
	c.chip.MemAccess(p, src, bytes)
	if out.DelaySeconds > 0 {
		p.Wait(out.DelaySeconds)
	}
	c.transferChunks(p, src, dst, bytes)
	t.done.Set()
	c.release(t)
	p.SetBlockDetail("")
}

// newTransfer takes a transfer off the free list, held by the sender.
func (c *Comm) newTransfer() *transfer {
	var t *transfer
	if n := len(c.free); n > 0 {
		t, c.free = c.free[n-1], c.free[:n-1]
	} else {
		t = new(transfer)
	}
	*t = transfer{done: sim.Latch{Name: "rcce.done"}, refs: 1}
	return t
}

// release lets go of one side's hold on t; the last side recycles it.
func (c *Comm) release(t *transfer) {
	if t.refs--; t.refs == 0 {
		c.free = append(c.free, t)
	}
}

// RecvTiming decomposes one Recv: WaitSeconds is the time spent blocked
// before the sender's rendezvous (the message "wasn't there yet"), and
// XferSeconds is the chunked MPB transfer time after rendezvous.
type RecvTiming struct {
	WaitSeconds float64
	XferSeconds float64
}

// Recv blocks the calling process (core dst) until a message from src
// arrives and its transfer completes, then returns it. Check
// Message.Corrupt before trusting the payload when faults are modelled.
func (c *Comm) Recv(p *sim.Process, src, dst int) Message {
	m, _, _ := c.RecvTimeout(p, src, dst, math.Inf(1))
	return m
}

// RecvTimeout is Recv with a deadline over the whole operation (waiting
// for the sender plus the transfer) and the wait/transfer split reported
// alongside the message. It returns ok=false when the deadline passes
// first — the sender may still be mid-transfer; its completion latch
// fires into the void. d = +Inf never gives up and schedules no timer.
func (c *Comm) RecvTimeout(p *sim.Process, src, dst int, d float64) (Message, RecvTiming, bool) {
	p.SetBlockDetail("rcce recv %d<-%d", dst, src)
	start := p.Now()
	v, ok := c.pair(src, dst).RecvTimeout(p, d)
	return c.join(p, dst, v, ok, start, d)
}

// RecvOrStop is Recv bounded by a broadcast stop flag: once stop has
// fired, the wait for the sender's rendezvous gives up stop.Grace
// seconds later (ok=false). The slave loops use it so a shutdown
// sentinel lost on a faulty link cannot park a core forever.
func (c *Comm) RecvOrStop(p *sim.Process, src, dst int, stop *sim.Latch) (Message, RecvTiming, bool) {
	p.SetBlockDetail("rcce recv %d<-%d", dst, src)
	start := p.Now()
	v, ok := c.pair(src, dst).RecvOrLatch(p, stop)
	return c.join(p, dst, v, ok, start, math.Inf(1))
}

// join completes a receive whose rendezvous (v, ok) was reached: wait
// for the chunked transfer, until d seconds after start at the latest.
func (c *Comm) join(p *sim.Process, dst int, v any, ok bool, start, d float64) (Message, RecvTiming, bool) {
	defer p.SetBlockDetail("")
	if !ok {
		return Message{}, RecvTiming{}, false
	}
	t := v.(*transfer)
	rdv := p.Now()
	ok = t.done.WaitTimeout(p, d-(rdv-start))
	m := t.msg
	c.release(t)
	if !ok {
		return Message{}, RecvTiming{}, false
	}
	c.coreRecv[dst].Add(float64(m.Bytes))
	return m, RecvTiming{WaitSeconds: rdv - start, XferSeconds: p.Now() - rdv}, true
}

// Probe reports whether a sender on (src, dst) is already blocked in
// Send — the simulation analogue of testing the sender's MPB ready flag.
// It consumes no simulated time; callers model the flag-read cost with
// PollCost. Senders that died mid-handshake are not reported.
func (c *Comm) Probe(src, dst int) bool {
	return c.pair(src, dst).Pending() > 0
}

// Listening reports whether core dst is already blocked in a receive
// from src: a Send to it completes its rendezvous without waiting.
func (c *Comm) Listening(src, dst int) bool {
	return c.pair(src, dst).Pending() < 0
}

// PollCost returns the simulated time for core `at` to read the MPB flag
// of core `of`: one flag-sized mesh round trip.
func (c *Comm) PollCost(at, of int) float64 {
	mesh := c.chip.Mesh()
	hops := mesh.Hops(c.chip.CoordOf(at), c.chip.CoordOf(of))
	if hops == 0 {
		hops = 1
	}
	cfg := mesh.Config()
	// Round trip of one flag packet plus the local test.
	return 2*float64(hops)*cfg.HopSeconds + 32/cfg.BytesPerSecond
}
