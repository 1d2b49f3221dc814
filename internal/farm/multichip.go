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
)

// Fabric wire-framing constants for the master→sub-master→master
// protocol (the board-tier analogue of the batch framing constants).
const (
	// ShardHeaderBytes frames one shard descriptor (job table, counts).
	ShardHeaderBytes = 64
	// InterchipResultHeaderBytes frames one result were it forwarded to
	// the root individually — the pre-aggregation protocol. It prices
	// the per-pair counterfactual (InterchipReport.PerPairResultBytes)
	// that aggregate blobs are compared against.
	InterchipResultHeaderBytes = 16
	// InterchipControlBytes is the size of a control message
	// (gather-done).
	InterchipControlBytes = 64
)

// aggMsg is one aggregate result blob travelling up the gather topology
// (its size is the message's; the results were booked at their
// sub-master). Blobs relay through interior tree chips unmerged, so the
// state reaching the root is independent of the arrival order at any
// level.
type aggMsg struct{}

// gatherDone signals that a chip and its whole gather subtree finished
// (stats travel in the chips' own bookkeeping, host-side).
type gatherDone struct{}

// subMaster is a remote chip's master program, spawned by Session.Run:
// it receives its shard from the root's Scatter (always the first
// message in its FIFO inbox: the root scatters before any result can
// flow), farms it while booking every result here, at the sub-master,
// flushes them toward its gather parent as one aggregate blob (pricing
// the per-pair counterfactual on the way, so the report shows what
// aggregation saved), then relays its children's blobs upward and
// forwards a gather-done once every child subtree reported.
func (s *Session) subMaster(m *Master) {
	c := m.c
	parent, kids := s.gather.Parent(c.id), s.gather.Children(c.id, len(s.chips))
	shard := s.fabric.Recv(m.P, c.id)
	s.shardWire += int64(shard.Bytes) // as charged: even an empty shard costs the fabric's 1-byte floor
	count, payload := 0, int64(0)
	m.FarmWork(shard.Payload.(Work), func(r rckskel.Result) {
		c.perPairBytes += int64(r.Bytes + InterchipResultHeaderBytes)
		count++
		payload += int64(r.Bytes)
	})
	if count > 0 {
		b := AggregateHeaderBytes + int(payload)
		c.resultBytes += int64(b)
		s.noteAggSend(b)
		s.fabric.Send(m.P, c.id, parent, b, aggMsg{})
	}
	m.Terminate()
	for pending := len(kids); pending > 0; {
		msg := s.fabric.Recv(m.P, c.id)
		switch pl := msg.Payload.(type) {
		case aggMsg:
			s.noteGatherHop(m.P.Now(), msg)
			s.noteAggSend(msg.Bytes)
			s.fabric.Send(m.P, c.id, parent, msg.Bytes, pl)
		case gatherDone:
			pending--
		}
	}
	s.controlBytes += InterchipControlBytes
	s.fabric.Send(m.P, c.id, parent, InterchipControlBytes, gatherDone{})
}

// drainRoot is the root's end of the gather: aggregate blobs and
// gather-done markers arrive through the root inbox from its direct
// children only (none on one chip). Per-pair results were booked at
// their sub-master, so the drain pays one transport + handling per blob —
// the root inbox stays shallow where the per-pair protocol queued
// thousands of results.
func (s *Session) drainRoot(m *Master) {
	for pending := len(s.gather.Children(0, len(s.chips))); pending > 0; {
		msg := s.fabric.Recv(m.P, 0)
		switch msg.Payload.(type) {
		case aggMsg:
			s.noteGatherHop(m.P.Now(), msg)
		case gatherDone:
			pending--
		}
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
