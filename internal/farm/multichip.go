// Multi-chip farming: N SCC chips on one engine, joined by the
// interchip fabric, farmed hierarchically — a root master on chip 0
// core 0 ships each remote chip its shard of the job list over the
// fabric, that chip's sub-master (its core 0) FARMs the shard to its
// own slaves over its own mesh, and the shard's results travel back as
// aggregate blobs up the gather topology (see gather.go) instead of one
// message per pair. Chip 0's shard is farmed by the root itself, so a
// multi-chip system degenerates gracefully: the root does exactly the
// paper's single-master job on its own chip, plus the scatter/gather at
// the board tier. Each chip is a full Session (placement, team, wire
// model, metrics scoped "chip"/"cN", optionally its own fault injector),
// all sharing one engine and trace recorder; MultiSession owns
// construction, the master bodies, and the combined Report with
// per-chip and interconnect breakdowns.
package farm

import (
	"errors"
	"fmt"
	"sort"

	"rckalign/internal/fault"
	"rckalign/internal/interchip"
	"rckalign/internal/rckskel"
	"rckalign/internal/scc"
	"rckalign/internal/sim"
	"rckalign/internal/trace"
)

// ErrChipCount reports a MultiSession configured with fewer than two
// chips — a 1-chip system must run the classic flat path, which is
// bit-identical by construction instead of by simulation accident.
var ErrChipCount = errors.New("farm: multi-chip session needs at least 2 chips")

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

// MultiChip is the board topology: Chips copies of one scc.Config
// joined by an interchip fabric. Core names are prefixed per chip
// ("c1.rck00"), so traces, reports and per-core metrics stay
// distinguishable.
type MultiChip struct {
	// Chips is the chip count (>= 2 for a MultiSession).
	Chips int
	// Chip is the per-chip configuration (DefaultConfig = Table I).
	Chip scc.Config
	// Interchip is the board-level interconnect profile (zero value =
	// interchip.DefaultConfig).
	Interchip interchip.Config
}

// interconnect resolves the zero-value default.
func (b MultiChip) interconnect() interchip.Config {
	if b.Interchip == (interchip.Config{}) {
		return interchip.DefaultConfig()
	}
	return b.Interchip
}

// MultiConfig describes one multi-chip farm session.
type MultiConfig struct {
	// Config is the per-chip session template, applied identically on
	// every chip: Slaves is the per-chip slave count (each chip's master
	// occupies its core 0, so at most NumCores-1), Trace / Metrics /
	// Collector are shared by all chips (metric keys are scoped per
	// chip), and each chip session owns an independent cache model, so
	// the wire accounting splits naturally per interconnect tier.
	// Chip and MasterCore are set per chip from Board. Faults, when
	// non-nil, carries global core ids (chip = id / coresPerChip) and is
	// split per chip with fault.SplitPlan; every chip — faulted or not —
	// arms the same deadline (FT), so every shard's report carries a
	// Faults block.
	Config
	// Board is the chip topology (Chips >= 2).
	Board MultiChip
	// Gather selects the result-aggregation topology (zero value = a
	// gather tree of DefaultGatherArity, one blob per shard).
	Gather GatherConfig
}

// MultiSession is a constructed multi-chip farm: one chip-level Session
// per chip, all on one engine, joined by the fabric. Through each
// ChipSession(c), start the chip's slaves and prepare its Work
// (PrepareJobs); then call Run.
type MultiSession struct {
	cfg      MultiConfig
	gather   GatherConfig
	engine   *sim.Engine
	fabric   *interchip.Fabric
	sessions []*Session

	shardBytes   []int64
	resultBytes  []int64
	perPairBytes []int64
	aggWireBytes int64
	aggMessages  int64
	gatherLat    map[int][]float64
}

// NewMultiSession validates the configuration and builds the runtime
// and per-chip sessions (each with its slice of the fault plan, when
// one is configured).
func NewMultiSession(cfg MultiConfig) (*MultiSession, error) {
	if cfg.Board.Chips < 2 {
		return nil, fmt.Errorf("%w (got %d)", ErrChipCount, cfg.Board.Chips)
	}
	gather, err := cfg.Gather.resolved()
	if err != nil {
		return nil, err
	}
	var plans []*fault.Plan
	if cfg.Faults != nil {
		plans, err = fault.SplitPlan(cfg.Faults, cfg.Board.Chips, cfg.Board.Chip.NumCores())
		if err != nil {
			return nil, fmt.Errorf("farm: %w: %v", ErrFaultPlan, err)
		}
	}
	rec := cfg.Trace
	if rec == nil {
		rec = trace.New()
	}
	ms := &MultiSession{
		cfg: cfg, gather: gather,
		engine:       sim.NewEngine(),
		fabric:       interchip.New(cfg.Board.Chips, cfg.Board.interconnect()),
		shardBytes:   make([]int64, cfg.Board.Chips),
		resultBytes:  make([]int64, cfg.Board.Chips),
		perPairBytes: make([]int64, cfg.Board.Chips),
		gatherLat:    map[int][]float64{},
	}
	if cfg.Metrics != nil {
		ms.fabric.SetMetrics(cfg.Metrics)
	}
	for c := 0; c < cfg.Board.Chips; c++ {
		scfg := cfg.Config
		scfg.Chip = cfg.Board.Chip
		scfg.Chip.NamePrefix = fmt.Sprintf("c%d.%s", c, cfg.Board.Chip.NamePrefix)
		scfg.MasterCore = 0
		scfg.Trace = rec
		if plans != nil {
			scfg.Faults = plans[c]
		}
		s, err := newSession(scfg, ms.engine, []string{"chip", fmt.Sprintf("c%d", c)})
		if err != nil {
			return nil, fmt.Errorf("farm: chip %d: %w", c, err)
		}
		ms.sessions = append(ms.sessions, s)
	}
	return ms, nil
}

// Chips returns the chip count.
func (ms *MultiSession) Chips() int { return ms.cfg.Board.Chips }

// ChipSession returns chip c's Session (for slave start, PrepareJobs and
// placement inspection).
func (ms *MultiSession) ChipSession(c int) *Session { return ms.sessions[c] }

// aggMsg is one aggregate result blob travelling up the gather
// topology: origin chip, summarised result count and their payload
// bytes. Blobs relay through interior tree chips unmerged, so the state
// reaching the root is independent of the arrival order at any level.
type aggMsg struct {
	origin  int
	results int
	payload int64
}

// gatherDone signals that a chip and its whole gather subtree finished
// (stats travel in the chip sessions' reports, host-side).
type gatherDone struct{ chip int }

// aggregator accumulates one chip's shard results and flushes them to
// the chip's gather parent as one aggregate blob per shard. It also
// prices the per-pair counterfactual so reports can show what
// aggregation saved.
type aggregator struct {
	ms           *MultiSession
	m            *Master
	chip, parent int
	count        int
	payload      int64
}

func (a *aggregator) collect(r rckskel.Result) {
	a.ms.perPairBytes[a.chip] += int64(r.Bytes + InterchipResultHeaderBytes)
	a.count++
	a.payload += int64(r.Bytes)
}

func (a *aggregator) flush() {
	if a.count == 0 {
		return
	}
	b := AggregateHeaderBytes + int(a.payload)
	a.ms.resultBytes[a.chip] += int64(b)
	a.ms.noteAggSend(b)
	a.ms.fabric.Send(a.m.P, a.chip, a.parent, b, aggMsg{
		origin: a.chip, results: a.count, payload: a.payload,
	})
	a.count, a.payload = 0, 0
}

// noteAggSend accounts one aggregate blob put on the fabric (origin
// flushes and relay hops alike).
func (ms *MultiSession) noteAggSend(bytes int) {
	ms.aggWireBytes += int64(bytes)
	ms.aggMessages++
	if reg := ms.cfg.Metrics; reg != nil {
		reg.Counter("interchip.gather.messages").Inc()
		reg.Counter("interchip.gather.bytes").Add(float64(bytes))
	}
}

// noteGatherHop records one blob hop's latency (send entry to receiver
// drain) under the sender's tree level; the per-level series surfaces
// in metrics and, through BuildChromeTrace, the Perfetto trace.
func (ms *MultiSession) noteGatherHop(now float64, msg interchip.Message) {
	level := ms.gather.DepthOf(msg.Src)
	lat := now - msg.SentAt
	ms.gatherLat[level] = append(ms.gatherLat[level], lat)
	if reg := ms.cfg.Metrics; reg != nil {
		reg.Series("interchip.gather.latency_seconds", "level", fmt.Sprintf("L%d", level)).Append(now, lat)
	}
}

// Run executes the multi-chip farm: work[c] is chip c's prepared
// workload (possibly empty), shardBytes[c] the fabric cost of handing
// chip c its shard (ignored for chip 0), loadResidues the root's
// one-time dataset load. It spawns every sub-master and the root,
// drives the shared engine to completion, and returns the combined
// report.
//
// Protocol: the root scatters one Work per remote chip, then farms its
// own shard. A sub-master receives its shard (always the first message
// in its FIFO inbox: the root scatters in chip order before any results
// can flow), farms it while aggregating results, flushes its blob(s)
// toward its gather parent, then relays its children's blobs upward and
// forwards a gatherDone once every child subtree reported. The root
// drains blobs and gatherDone markers from its direct children only —
// O(arity) flows instead of one stream per chip per pair.
func (ms *MultiSession) Run(loadResidues int, work []Work, shardBytes []int64) (Report, error) {
	n := ms.Chips()
	if len(work) != n || len(shardBytes) != n {
		return Report{}, fmt.Errorf("farm: multi-chip run wants %d shards and shard sizes, got %d and %d",
			n, len(work), len(shardBytes))
	}
	fabric := ms.fabric
	copy(ms.shardBytes, shardBytes)
	ms.shardBytes[0] = 0

	for c := 1; c < n; c++ {
		c := c
		sess := ms.sessions[c]
		parent := ms.gather.Parent(c)
		kids := ms.gather.Children(c, n)
		sess.SpawnMaster("", func(m *Master) {
			msg := fabric.Recv(m.P, c)
			agg := &aggregator{ms: ms, m: m, chip: c, parent: parent}
			m.FarmWork(msg.Payload.(Work), agg.collect)
			agg.flush()
			m.Terminate()
			for pending := len(kids); pending > 0; {
				msg := fabric.Recv(m.P, c)
				switch pl := msg.Payload.(type) {
				case aggMsg:
					ms.noteGatherHop(m.P.Now(), msg)
					ms.noteAggSend(msg.Bytes)
					fabric.Send(m.P, c, parent, msg.Bytes, pl)
				case gatherDone:
					pending--
				}
			}
			fabric.Send(m.P, c, parent, InterchipControlBytes, gatherDone{chip: c})
		})
	}

	root := ms.sessions[0]
	rootKids := ms.gather.Children(0, n)
	root.SpawnMaster("", func(m *Master) {
		if loadResidues > 0 {
			m.LoadResidues(loadResidues)
		}
		for c := 1; c < n; c++ {
			fabric.Send(m.P, 0, c, int(ms.shardBytes[c]), work[c])
		}
		m.FarmWork(work[0], nil)
		m.Terminate()
		// Gather: aggregate blobs and gather-done markers arrive through
		// the root inbox from the root's direct children only; per-pair
		// results were booked at their sub-master, so the drain pays one
		// transport + handling per blob — the root inbox stays shallow
		// where the per-pair protocol queued thousands of results.
		for pending := len(rootKids); pending > 0; {
			msg := fabric.Recv(m.P, 0)
			switch msg.Payload.(type) {
			case aggMsg:
				ms.noteGatherHop(m.P.Now(), msg)
			case gatherDone:
				pending--
			}
		}
	})

	err := ms.engine.Run()
	return ms.finalize(), err
}

// finalize folds the chip sessions into the combined multi-chip report.
func (ms *MultiSession) finalize() Report {
	n := ms.Chips()
	root := ms.sessions[0]
	coresPerChip := ms.cfg.Board.Chip.NumCores()

	rep := Report{
		Backend:         fmt.Sprintf("multichip-%d", n),
		Slaves:          n * ms.cfg.Slaves,
		Chips:           n,
		LoadSeconds:     root.rep.LoadSeconds,
		TotalSeconds:    root.rep.TotalSeconds,
		FarmStats:       rckskel.Stats{JobsPerSlave: map[int]int{}},
		CoreBusySeconds: map[string]float64{},
		CoreUtilization: map[string]float64{},
	}

	for c, s := range ms.sessions {
		s.finalize()
		rep.Workers += s.rep.Workers
		rep.EffectiveCores += s.rep.EffectiveCores
		rep.DroppedCores += s.rep.DroppedCores
		rep.Collected += s.rep.Collected
		for local, jobs := range s.rep.FarmStats.JobsPerSlave {
			rep.FarmStats.JobsPerSlave[c*coresPerChip+local] += jobs
		}
		rep.FarmStats.PollProbes += s.rep.FarmStats.PollProbes

		// Sum busy time in sorted track order: map iteration order would
		// make the float accumulation (and so MeanUtilization) vary in the
		// last bit between identical runs.
		tracks := make([]string, 0, len(s.rep.CoreBusySeconds))
		for track := range s.rep.CoreBusySeconds {
			tracks = append(tracks, track)
		}
		sort.Strings(tracks)
		chipBusy := 0.0
		for _, track := range tracks {
			busy := s.rep.CoreBusySeconds[track]
			rep.CoreBusySeconds[track] = busy
			if rep.TotalSeconds > 0 {
				rep.CoreUtilization[track] = busy / rep.TotalSeconds
			}
			chipBusy += busy
		}
		cr := ChipReport{
			Chip:         c,
			Master:       s.rt.Chip.CoreName(0),
			Collected:    s.rep.Collected,
			TotalSeconds: s.rep.TotalSeconds,
			FarmStats:    s.rep.FarmStats,
			Wire:         s.rep.Wire,
			Faults:       s.rep.Faults,
			ShardBytes:   ms.shardBytes[c],
			ResultBytes:  ms.resultBytes[c],
		}
		if len(tracks) > 0 && rep.TotalSeconds > 0 {
			cr.MeanUtilization = chipBusy / (float64(len(tracks)) * rep.TotalSeconds)
		}
		if s.rep.Metrics != nil {
			cr.PeakMailboxDepth = s.rep.Metrics.PeakMailboxDepth
		}
		rep.PerChip = append(rep.PerChip, cr)
	}
	rep.FarmStats.MakespanSeconds = rep.TotalSeconds - rep.LoadSeconds
	rep.Wire = ms.mergeWire()
	rep.Metrics = ms.mergeMetrics()
	rep.Faults = ms.mergeFaults(coresPerChip)
	rep.Interchip = ms.interchipReport()
	return rep
}

// mergeFaults folds the per-chip fault summaries into one board-level
// block with global core ids (chip*coresPerChip + local); nil on
// fault-free runs.
func (ms *MultiSession) mergeFaults(coresPerChip int) *FaultStats {
	if ms.cfg.Faults == nil {
		return nil
	}
	out := &FaultStats{}
	for c, s := range ms.sessions {
		cf := s.rep.Faults
		if cf == nil {
			continue
		}
		out.Injected.CoresKilled += cf.Injected.CoresKilled
		out.Injected.CoresStalled += cf.Injected.CoresStalled
		out.Injected.Dropped += cf.Injected.Dropped
		out.Injected.Delayed += cf.Injected.Delayed
		out.Injected.Corrupted += cf.Injected.Corrupted
		out.Timeouts += cf.Timeouts
		out.DetectedCorrupt += cf.DetectedCorrupt
		out.Retries += cf.Retries
		out.Reassigned += cf.Reassigned
		out.DuplicatesDropped += cf.DuplicatesDropped
		out.LostJobs += cf.LostJobs
		for _, core := range cf.DeadCores {
			out.DeadCores = append(out.DeadCores, c*coresPerChip+core)
		}
		for _, core := range cf.Blacklisted {
			out.Blacklisted = append(out.Blacklisted, c*coresPerChip+core)
		}
	}
	sort.Ints(out.DeadCores)
	sort.Ints(out.Blacklisted)
	return out
}

// mergeWire sums the chip-local wire reports (nil when no chip used the
// cache/batch wire model).
func (ms *MultiSession) mergeWire() *WireReport {
	var out *WireReport
	for _, s := range ms.sessions {
		w := s.rep.Wire
		if w == nil {
			continue
		}
		if out == nil {
			out = &WireReport{CacheCapacity: w.CacheCapacity}
		}
		out.CacheHits += w.CacheHits
		out.CacheMisses += w.CacheMisses
		out.CacheEvictions += w.CacheEvictions
		out.CacheForcedReships += w.CacheForcedReships
		out.BaselineInputBytes += w.BaselineInputBytes
		out.ShippedInputBytes += w.ShippedInputBytes
		out.Batches += w.Batches
		out.BatchedJobs += w.BatchedJobs
		if w.MaxBatchJobs > out.MaxBatchJobs {
			out.MaxBatchJobs = w.MaxBatchJobs
		}
	}
	if out == nil {
		return nil
	}
	out.SavedInputBytes = out.BaselineInputBytes - out.ShippedInputBytes
	if out.CacheHits+out.CacheMisses > 0 {
		out.CacheHitRate = float64(out.CacheHits) / float64(out.CacheHits+out.CacheMisses)
	}
	if out.ShippedInputBytes > 0 {
		out.InputReduction = float64(out.BaselineInputBytes) / float64(out.ShippedInputBytes)
	}
	if out.Batches > 0 {
		out.MeanBatchJobs = float64(out.BatchedJobs) / float64(out.Batches)
	}
	return out
}

// mergeMetrics aggregates the chip-level metrics blocks: deepest
// mailbox anywhere, job stages summed, the worst mesh link across all
// chips (named "cN:(x,y)->(x,y)").
func (ms *MultiSession) mergeMetrics() *MetricsReport {
	if ms.cfg.Metrics == nil {
		return nil
	}
	out := &MetricsReport{JobStages: map[string]StageAgg{}}
	for c, s := range ms.sessions {
		mr := s.rep.Metrics
		if mr == nil {
			continue
		}
		if mr.PeakMailboxDepth > out.PeakMailboxDepth {
			out.PeakMailboxDepth = mr.PeakMailboxDepth
		}
		for stage, agg := range mr.JobStages {
			cur := out.JobStages[stage]
			cur.Count += agg.Count
			cur.TotalSeconds += agg.TotalSeconds
			if agg.MaxSeconds > cur.MaxSeconds {
				cur.MaxSeconds = agg.MaxSeconds
			}
			out.JobStages[stage] = cur
		}
		if mr.WorstLinkBusySeconds > out.WorstLinkBusySeconds {
			out.WorstLink = fmt.Sprintf("c%d:%s", c, mr.WorstLink)
			out.WorstLinkBusySeconds = mr.WorstLinkBusySeconds
			out.WorstLinkUtilization = mr.WorstLinkUtilization
			out.LinkHeatmap = mr.LinkHeatmap
		}
	}
	for stage, agg := range out.JobStages {
		if agg.Count > 0 {
			agg.MeanSeconds = agg.TotalSeconds / float64(agg.Count)
		}
		out.JobStages[stage] = agg
	}
	return out
}

// interchipReport distills the fabric accounting into the Report block.
func (ms *MultiSession) interchipReport() *InterchipReport {
	n := ms.Chips()
	st := ms.fabric.Stats()
	out := &InterchipReport{
		Profile:         ms.fabric.Config().String(),
		Transfers:       st.Transfers,
		Bytes:           st.Bytes,
		SendWaitSeconds: st.SendWaitSeconds,
		PeakRootInbox:   st.PeakInboxDepth[0],
		RootFlows:       st.InboxMessages[0],
		GatherMode:      ms.gather.Mode,
		GatherArity:     ms.gather.Arity,
		GatherDepth:     ms.gather.Depth(n),
		RootFanIn:       len(ms.gather.Children(0, n)),
		AggMessages:     ms.aggMessages,
		ResultBytes:     ms.aggWireBytes,
	}
	for c := 0; c < n; c++ {
		out.ShardBytes += ms.shardBytes[c]
		out.PerPairResultBytes += ms.perPairBytes[c]
	}
	levels := make([]int, 0, len(ms.gatherLat))
	for level := range ms.gatherLat {
		levels = append(levels, level)
	}
	sort.Ints(levels)
	for _, level := range levels {
		lats := ms.gatherLat[level]
		gl := GatherLevel{Level: level, Blobs: int64(len(lats))}
		for _, lat := range lats {
			gl.MeanLatencySeconds += lat
			if lat > gl.MaxLatencySeconds {
				gl.MaxLatencySeconds = lat
			}
		}
		if len(lats) > 0 {
			gl.MeanLatencySeconds /= float64(len(lats))
		}
		out.GatherLevels = append(out.GatherLevels, gl)
	}
	if reg := ms.cfg.Metrics; reg != nil {
		for c := 0; c < n; c++ {
			out.IntraChipBytes += int64(reg.Counter("rcce.send.bytes", "chip", fmt.Sprintf("c%d", c)).Value())
		}
	}
	return out
}
