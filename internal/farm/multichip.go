// The board tier: on more than one chip, the chips share one engine and
// are joined by the interchip fabric, farmed hierarchically — the root
// master on chip 0 core 0 ships each remote chip its shard of the job
// list over the fabric (Master.Scatter), that chip's sub-master (its
// core 0) FARMs the shard to its own slaves over its own mesh, and the
// shard's results travel back as aggregate blobs up the gather topology
// (see gather.go) instead of one message per pair. Chip 0's shard is
// farmed by the root itself, so the root does exactly the paper's
// single-master job on its own chip, plus the scatter/gather at the
// board tier; on one chip there is no board tier at all.
package farm

import (
	"fmt"
	"sort"

	"rckalign/internal/interchip"
	"rckalign/internal/rckskel"
	"rckalign/internal/sched"
)

// Fabric wire-framing constants for the master→sub-master→master
// protocol (the board-tier analogue of the batch framing constants).
const (
	// ShardHeaderBytes frames one shard descriptor (job table, counts).
	ShardHeaderBytes = 64
	// ShardJobHeaderBytes is the per-pair descriptor inside a shard (job
	// id, structure ids, lengths).
	ShardJobHeaderBytes = 16
	// InterchipResultHeaderBytes frames one result were it forwarded to
	// the root individually — the pre-aggregation protocol. It prices
	// the per-pair counterfactual (InterchipReport.PerPairResultBytes)
	// that aggregate blobs are compared against.
	InterchipResultHeaderBytes = 16
	// InterchipControlBytes is the size of a control message
	// (gather-done).
	InterchipControlBytes = 64
)

// shard is one stage's work for a remote chip as Master.Scatter sends
// it; more, a flag inside the header, says another shard follows.
type shard struct {
	work Work
	more bool
}

// aggMsg is one aggregate result blob travelling up the gather topology
// (its size is the message's; the results were booked at their
// sub-master). Blobs relay through interior tree chips unmerged, so the
// state reaching the root is independent of the arrival order at any
// level.
type aggMsg struct{}

// gatherDone signals that a chip and its whole gather subtree finished
// (stats travel in the chips' own bookkeeping, host-side).
type gatherDone struct{}

// boardLoop is a master's end of the board tier, run by Session.Run: one
// receive loop over the chip's inbox, in arrival order, until no shard is
// due (more) and every child subtree reported. A shard (on a one-stage
// run a sub-master's first message) is farmed, and the chip's slaves stop
// after the last; a child's blob is relayed upward, or at the root only
// drained, one transport per blob instead of one per pair; a child's
// gather-done is counted. A sub-master then sends its own gather-done.
func (s *Session) boardLoop(m *Master, more bool) {
	c := m.c
	pending := len(s.gather.Children(c.id, len(s.chips)))
	for more || pending > 0 {
		msg := s.fabric.Recv(m.P, c.id)
		switch pl := msg.Payload.(type) {
		case shard:
			s.farmShard(m, pl.work)
			if more = pl.more; !more {
				m.Terminate()
			}
		case aggMsg:
			s.noteGatherHop(m.P.Now(), msg)
			if c.id > 0 {
				s.noteAggSend(msg.Bytes)
				s.fabric.Send(m.P, c.id, s.gather.Parent(c.id), msg.Bytes, pl)
			}
		case gatherDone:
			pending--
		}
	}
	if c.id > 0 {
		s.controlBytes += InterchipControlBytes
		s.fabric.Send(m.P, c.id, s.gather.Parent(c.id), InterchipControlBytes, gatherDone{})
	}
}

// farmShard farms a shard on a sub-master's chip, booking every result
// here, and sends the parent one aggregate blob of them (if any), pricing
// the per-pair counterfactual on the way.
func (s *Session) farmShard(m *Master, w Work) {
	c := m.c
	count, payload := 0, int64(0)
	m.FarmWork(w, func(r rckskel.Result) {
		c.perPairBytes += int64(r.Bytes + InterchipResultHeaderBytes)
		count++
		payload += int64(r.Bytes)
	})
	if count > 0 {
		b := AggregateHeaderBytes + int(payload)
		c.resultBytes += int64(b)
		s.noteAggSend(b)
		s.fabric.Send(m.P, c.id, s.gather.Parent(c.id), b, aggMsg{})
	}
}

// noteAggSend accounts one aggregate blob put on the fabric (origin
// flushes and relay hops alike).
func (s *Session) noteAggSend(bytes int) {
	s.aggWireBytes += int64(bytes)
	s.aggMessages++
}

// noteGatherHop records one blob hop's latency (send entry to receiver
// drain) under the sender's tree level; the per-level series surfaces
// in metrics and, through BuildChromeTrace, the Perfetto trace.
func (s *Session) noteGatherHop(now float64, msg interchip.Message) {
	level := s.gather.DepthOf(msg.Src)
	lat := now - msg.SentAt
	gl := s.levels[level]
	if gl == nil {
		gl = &GatherLevel{Level: level}
		s.levels[level] = gl
	}
	gl.Blobs++
	gl.MeanLatencySeconds += lat // a sum until interchipReport divides it
	gl.MaxLatencySeconds = max(gl.MaxLatencySeconds, lat)
	if reg := s.cfg.Metrics; reg != nil {
		reg.Series("interchip.gather.latency_seconds", "level", fmt.Sprintf("L%d", level)).Append(now, lat)
	}
}

// interchipReport distills the fabric accounting into the Report block.
func (s *Session) interchipReport() *InterchipReport {
	n := len(s.chips)
	st := s.fabric.Stats()
	out := &InterchipReport{
		Profile:         s.fabric.Config().String(),
		Transfers:       st.Transfers,
		Bytes:           st.Bytes,
		SendWaitSeconds: st.SendWaitSeconds,
		PeakRootInbox:   st.PeakInboxDepth[0],
		RootFlows:       st.InboxMessages[0],
		GatherMode:      s.gather.Mode,
		GatherArity:     s.gather.Arity,
		GatherDepth:     s.gather.Depth(n),
		RootFanIn:       len(s.gather.Children(0, n)),
		AggMessages:     s.aggMessages,
		ResultBytes:     s.aggWireBytes,
	}
	for _, c := range s.chips {
		out.ShardBytes += c.shardBytes
		out.PerPairResultBytes += c.perPairBytes
		out.IntraChipBytes += c.comm.SentBytes()
	}
	for _, gl := range s.levels {
		gl.MeanLatencySeconds /= float64(gl.Blobs)
		out.GatherLevels = append(out.GatherLevels, *gl)
	}
	sort.Slice(out.GatherLevels, func(a, b int) bool { return out.GatherLevels[a].Level < out.GatherLevels[b].Level })
	return out
}

// price counts shard w as scattered to chip c and returns its fabric
// cost: the header, a descriptor per pair, each distinct structure once.
func (s *Session) price(c *chip, w Work) int64 {
	if c.shipped == nil {
		c.shipped = make([]int, len(s.sizes))
	}
	c.shards++
	bytes := int64(ShardHeaderBytes)
	for _, q := range w.Queues {
		c.scattered += len(q)
		for _, j := range q {
			subs := []rckskel.Job{j}
			if bp, ok := j.Payload.(BatchPayload); ok {
				subs = bp.Jobs
			}
			for _, sub := range subs {
				p := sub.Payload.(*sched.Pair)
				bytes += ShardJobHeaderBytes
				for _, id := range [2]int{p.I, p.J} {
					if c.shipped[id] != c.shards {
						c.shipped[id] = c.shards
						bytes += int64(s.sizes[id])
					}
				}
			}
		}
	}
	return bytes
}
