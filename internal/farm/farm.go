// Package farm is the unified run harness beneath every master–slaves
// execution path in this repository (core's run pipeline, the
// distributed MCPC baseline and the multi-criteria PSC farms). It owns
// the pieces those paths used to duplicate: simulation runtime
// construction (engine + chip + comm), slave placement (master skip,
// thread-grouped tile workers), job building, master spawn, result
// collection through a pluggable Collector, termination, and a uniform
// Report with per-core utilization derived from trace.
//
// A path composes a Session instead of copying a 150-line run function:
//
//	s, _ := farm.NewSession(farm.Config{Chip: chip, Slaves: n})
//	s.StartSlaves(handler)
//	rep, err := s.Run("", func(m *farm.Master) {
//	        m.LoadResidues(ds.TotalResidues())
//	        m.FarmWork(farm.Work{Jobs: jobs}, nil)
//	        m.Terminate()
//	})
package farm

import (
	"fmt"
	"strings"

	"rckalign/internal/costmodel"
	"rckalign/internal/fault"
	"rckalign/internal/metrics"
	"rckalign/internal/prune"
	"rckalign/internal/rcce"
	"rckalign/internal/rckskel"
	"rckalign/internal/scc"
	"rckalign/internal/sim"
	"rckalign/internal/trace"
)

// Runtime bundles the simulated platform objects one chip's farm
// executes on.
type Runtime struct {
	Engine *sim.Engine
	Chip   *scc.Chip
	Comm   *rcce.Comm
}

// Collector receives every result gathered by the master, after the
// session's own bookkeeping and before the run path's domain logic. It
// is the plug-in point for experiment instrumentation (histograms,
// progress streams, custom sinks) that should work across all paths.
type Collector interface {
	Collect(r rckskel.Result)
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(rckskel.Result)

// Collect implements Collector.
func (f CollectorFunc) Collect(r rckskel.Result) { f(r) }

// HostMaster as Config.MasterCore places the master off-chip (an MCPC
// host process driving the cores, as in the distributed baseline): no
// core is reserved for it and slave placement starts at core 0.
const HostMaster = -1

// Config describes one farm session.
type Config struct {
	// Chip is the simulated SCC the session runs on.
	Chip scc.Config
	// MasterCore hosts the master process (HostMaster = off-chip).
	MasterCore int
	// Slaves is the number of slave cores to place.
	Slaves int
	// ThreadsPerWorker groups that many consecutive slave cores into one
	// worker process (2 = dual-core tile workers). When the slave count
	// is not a multiple, the leftover cores are not used; the rounding is
	// reported in Report.EffectiveCores / Report.DroppedCores.
	ThreadsPerWorker int
	// PollingScale scales the master's round-robin polling discovery
	// cost on every team (1 = the paper's busy polling, 0 = ideal
	// event-driven notification). Values below zero are treated as 1.
	PollingScale float64
	// Trace, when non-nil, receives per-core activity intervals. The
	// session records into an internal recorder when nil, so Report
	// utilization is always available.
	Trace *trace.Recorder
	// Metrics, when non-nil, receives counters, histograms and time
	// series from every layer of the run (sim engine, mesh links, rcce
	// volumes, per-job latency stages, master mailbox depth) and enables
	// the Report.Metrics summary block. Recording is passive — it never
	// changes simulated timings — and nil (the default) is free.
	Metrics *metrics.Registry
	// Collector, when non-nil, observes every collected result.
	Collector Collector
	// Batch bundles up to this many consecutive jobs into one request
	// message with one batched result (0 or 1 = one message per job,
	// the classic protocol). Applied by PrepareJobs; slaves must then
	// run a BatchHandler-wrapped handler.
	Batch int
	// CacheStructs enables the slave-side structure-cache model with
	// this per-slave LRU capacity in structures: the master ships only
	// the structures the target slave's modelled cache is missing, so
	// request wire size becomes header + miss bytes. 0 disables the
	// model (the paper's ship-both-structures wire). Applied by
	// PrepareJobs.
	CacheStructs int
	// Faults, when non-nil, is injected into the run (kills, stalls, link
	// faults through the wire interposer) and summarised in
	// Report.Faults. A non-nil but empty plan injects nothing: the
	// report is identical to the plan-free run's but for that block.
	Faults *fault.Plan
	// FT arms every farm's failure detection (per-job deadlines, retry,
	// blacklisting). The zero value arms nothing; a deadline is only
	// useful under a fault plan, whose wire model lets sends to dead
	// cores vanish instead of hanging.
	FT rckskel.FTConfig
}

// Report is the uniform outcome of a farm execution.
type Report struct {
	// Backend names the runtime: "scc-sim" on one chip, "multichip-N"
	// on a board.
	Backend string
	// Slaves is the requested slave-core count.
	Slaves int
	// Workers is the number of worker processes placed.
	Workers int
	// EffectiveCores counts the slave cores actually contributing
	// compute (Workers * threads); with thread-grouped workers and a
	// slave count that is not a multiple of the group size this is less
	// than Slaves.
	EffectiveCores int
	// DroppedCores = Slaves - EffectiveCores (leftover cores that could
	// not form a complete worker).
	DroppedCores int
	// LoadSeconds is the master's one-time data loading cost.
	LoadSeconds float64
	// TotalSeconds is the simulated end-to-end time.
	TotalSeconds float64
	// FarmStats merges the job-distribution statistics of every farm the
	// master executed.
	FarmStats rckskel.Stats
	// Collected counts results received by the master(s).
	Collected int
	// CoreBusySeconds maps each traced core to its busy time.
	CoreBusySeconds map[string]float64
	// CoreUtilization maps each traced core to its busy fraction of the
	// run window [0, TotalSeconds].
	CoreUtilization map[string]float64
	// Faults summarises fault injection and recovery (nil without a
	// fault plan).
	Faults *FaultStats
	// Metrics summarises the run's key observability signals (nil unless
	// Config.Metrics was set).
	Metrics *MetricsReport
	// Wire summarises the cache/batch wire model: hit rate, input bytes
	// saved, batch statistics (nil on classic runs).
	Wire *WireReport
	// Chips is the chip count of a multi-chip run (0 on the classic
	// single-chip paths, whose reports stay bit-identical).
	Chips int
	// PerChip breaks a multi-chip run down chip by chip (nil otherwise).
	PerChip []ChipReport
	// Interchip summarises the board-level interconnect traffic of a
	// multi-chip run (nil otherwise).
	Interchip *InterchipReport
	// Prune summarises the opt-in pre-filter that removed pairs from the
	// workload before farming (nil when pruning was off): pairs examined
	// and skipped, the bound distribution and the filter's own DP cost.
	Prune *prune.Report
	// Tiled summarises the out-of-core block schedule of a run under a
	// master memory budget (nil when the whole dataset was resident).
	Tiled *TiledReport
}

// TiledReport is the Report block for runs whose master holds only part
// of the dataset at a time: the load schedule replaces the one-time
// load, so Report.LoadSeconds stays 0 and ReloadSeconds carries the
// loading cost instead.
type TiledReport struct {
	// Blocks is the number of dataset blocks the budget forced.
	Blocks int
	// BlockLoads counts block load events (including reloads).
	BlockLoads int
	// ReloadSeconds is the total simulated time spent (re)loading
	// blocks from storage.
	ReloadSeconds float64
}

// ChipReport is one chip's slice of a multi-chip Report.
type ChipReport struct {
	// Chip is the chip index; Master the sub-master core's name
	// ("c1.rck00"; chip 0's master is the root).
	Chip   int
	Master string
	// Collected counts results gathered by this chip's (sub-)master.
	Collected int
	// TotalSeconds is when this chip's master finished (for remote
	// chips: after farming its shard and forwarding every result).
	TotalSeconds float64
	// FarmStats is the chip-local farm execution's statistics
	// (JobsPerSlave keyed by chip-local core id).
	FarmStats rckskel.Stats
	// MeanUtilization averages the busy fraction of this chip's traced
	// cores over the run window.
	MeanUtilization float64
	// PeakMailboxDepth is the chip master's deepest mailbox (0 without
	// metrics).
	PeakMailboxDepth float64
	// Wire is the chip-local cache/batch wire accounting (nil when the
	// wire model is off).
	Wire *WireReport
	// Faults is the chip-local fault summary (core ids chip-local; nil
	// on fault-free runs). Report.Faults merges them with global ids.
	Faults *FaultStats
	// ShardBytes is what crossing the fabric to hand this chip its
	// shard cost (0 for chip 0, whose shard never leaves the root).
	ShardBytes int64
	// ResultBytes is the aggregate-blob bytes this chip originated onto
	// the fabric (0 for chip 0, whose results never leave the root).
	ResultBytes int64
}

// InterchipReport is the Report block for the board-level interconnect
// tier of a multi-chip run, built from the fabric's own accounting (no
// metrics registry needed).
type InterchipReport struct {
	// Profile echoes the interconnect cost profile.
	Profile string
	// Transfers and Bytes count every fabric message.
	Transfers int64
	Bytes     int64
	// ShardBytes and ResultBytes split Bytes into the outbound shard
	// descriptors and the aggregate result blobs travelling up the
	// gather topology, relay hops included (the remainder is control).
	ShardBytes  int64
	ResultBytes int64
	// PerPairResultBytes is the counterfactual wire volume had every
	// result been forwarded individually (the pre-aggregation
	// protocol): per-pair result bytes plus one
	// InterchipResultHeaderBytes frame each. Comparing it with
	// ResultBytes shows what sub-master aggregation saved.
	PerPairResultBytes int64
	// SendWaitSeconds is total sender time lost to port contention.
	SendWaitSeconds float64
	// PeakRootInbox is the deepest the root chip's inbox got — the
	// direct signal for when the single root master saturates.
	PeakRootInbox int
	// RootFlows counts every fabric message that landed in the root's
	// inbox (blobs + gather-done markers): O(arity·log N) under a
	// gather tree where the per-pair protocol funnelled O(pairs).
	RootFlows int64
	// GatherMode/GatherArity/GatherDepth/RootFanIn describe the
	// result-aggregation topology: mode ("tree" or "flat"), tree
	// fan-in, deepest tree level, and the number of chips reporting
	// directly to the root.
	GatherMode  string
	GatherArity int
	GatherDepth int
	RootFanIn   int
	// AggMessages counts aggregate blobs put on the fabric, relay hops
	// included.
	AggMessages int64
	// GatherLevels summarises blob-hop latency per tree level (level 1
	// = hops into the root), deepest senders last.
	GatherLevels []GatherLevel
	// IntraChipBytes sums the on-chip RCCE wire volume across all chips
	// (only available when the run had a metrics registry; 0 otherwise).
	// Comparing it with Bytes gives the inter- vs intra-chip traffic
	// split.
	IntraChipBytes int64
}

// GatherLevel is one tree level's blob-hop latency summary: a level-L
// hop carries a blob from a depth-L chip to its depth-(L-1) parent,
// measured from send entry to receiver drain (port contention and
// receiver inbox queueing included).
type GatherLevel struct {
	Level              int
	Blobs              int64
	MeanLatencySeconds float64
	MaxLatencySeconds  float64
}

// MetricsReport is the Report block distilled from the metrics registry:
// the signals that diagnose the paper's master bottleneck at a glance.
type MetricsReport struct {
	// PeakMailboxDepth is the most slaves ever simultaneously waiting
	// with a ready result for the master to collect.
	PeakMailboxDepth float64
	// WorstLink names the busiest directed mesh link ("(x,y)->(x,y)");
	// empty when the mesh ran without contention modelling.
	WorstLink string
	// WorstLinkBusySeconds is that link's accumulated busy time.
	WorstLinkBusySeconds float64
	// WorstLinkUtilization is that busy time as a fraction of the run.
	WorstLinkUtilization float64
	// JobStages aggregates the per-job latency decomposition, keyed
	// dispatch_wait, input_xfer, compute, result_xfer, collect_wait.
	JobStages map[string]StageAgg
	// LinkHeatmap is the mesh's per-link busy-time grid rendered as text
	// (empty without contention modelling); see noc.Mesh.LinkHeatmap.
	LinkHeatmap string
}

// StageAgg summarises one stage of the per-job latency decomposition.
type StageAgg struct {
	Count        int64
	TotalSeconds float64
	MeanSeconds  float64
	MaxSeconds   float64
}

// jobStageNames are the per-job latency stages mirrored into
// MetricsReport.JobStages from the "farm.job.<stage>_seconds" histograms.
var jobStageNames = []string{"dispatch_wait", "input_xfer", "compute", "result_xfer", "collect_wait"}

// FaultStats is the Report block for fault-tolerant runs: what was
// injected at the wire and cores, and what the farm's detection and
// recovery machinery did about it.
type FaultStats struct {
	// Injected counts the faults the plan actually delivered.
	Injected fault.Stats
	// DeadCores lists fail-stopped cores, sorted.
	DeadCores []int
	// Timeouts, Retries, Reassigned, DetectedCorrupt, Duplicates
	// Dropped, LostJobs and Blacklisted mirror rckskel.FTStats,
	// accumulated over every farm the master executed.
	Timeouts          int
	DetectedCorrupt   int
	Retries           int
	Reassigned        int
	DuplicatesDropped int
	LostJobs          int
	Blacklisted       []int
}

// Session is a constructed farm: runtime, placement and report
// bookkeeping. Start slaves (or spawn custom core processes), then call
// Run with the master body.
type Session struct {
	cfg      Config
	rt       Runtime
	place    Placement
	rec      *trace.Recorder
	team     *rckskel.Team
	rep      Report
	injector *fault.Injector
	ft       rckskel.FTStats
	// labels scope this session's fixed metric keys (multi-chip runs
	// label each chip session "chip"/"cN"; nil on classic sessions, so
	// their keys stay bit-identical).
	labels []string

	// Cache/batch wire model state (see batch.go / structcache.go).
	cache          *StructCache
	wire           wireStats
	hBatchJobs     *metrics.Histogram
	cDispatches    *metrics.Counter
	cInputBaseline *metrics.Counter
	cInputShipped  *metrics.Counter
}

// NewSession validates the configuration, builds the runtime, places
// the slaves and, when a fault plan is configured, arms the injector
// (kill/stall events scheduled, wire interposer installed).
func NewSession(cfg Config) (*Session, error) {
	return newSession(cfg, sim.NewEngine(), nil)
}

// newSession is NewSession on a given engine: a multi-chip session
// builds one chip-level Session per chip, all sharing one engine and
// trace recorder, each scoped by labels ("chip"/"cN").
func newSession(cfg Config, engine *sim.Engine, labels []string) (*Session, error) {
	place, err := Place(cfg)
	if err != nil {
		return nil, err
	}
	chip := scc.New(engine, cfg.Chip)
	rt := Runtime{Engine: engine, Chip: chip, Comm: rcce.New(chip)}
	rec := cfg.Trace
	if rec == nil {
		rec = trace.New()
	}
	s := &Session{cfg: cfg, rt: rt, place: place, rec: rec, labels: labels}
	if cfg.Metrics != nil {
		s.rt.Engine.SetMetrics(cfg.Metrics)
		s.rt.Chip.Mesh().SetMetrics(cfg.Metrics, labels...)
		s.rt.Comm.SetMetrics(cfg.Metrics, labels...)
	}
	if cfg.Faults != nil {
		master := cfg.MasterCore
		if master == HostMaster {
			// Off-chip master: no core is exempt from faults.
			master = -1
		}
		if err := cfg.Faults.Validate(cfg.Chip.NumCores(), master); err != nil {
			return nil, fmt.Errorf("farm: %w: %v", ErrFaultPlan, err)
		}
		s.injector = fault.NewInjector(cfg.Faults)
		s.injector.Arm(s.rt.Chip, rec)
		s.rt.Comm.SetInterposer(s.injector)
	}
	s.rep = Report{
		Backend:         "scc-sim",
		Slaves:          cfg.Slaves,
		Workers:         len(place.WorkerLeads),
		EffectiveCores:  place.EffectiveCores,
		DroppedCores:    place.DroppedCores,
		FarmStats:       rckskel.Stats{JobsPerSlave: map[int]int{}},
		CoreBusySeconds: map[string]float64{},
		CoreUtilization: map[string]float64{},
	}
	return s, nil
}

// ValidateJobs rejects nil or empty job lists with ErrNoJobs and jobs
// with a non-positive static wire size with rckskel.ErrJobBytes; run
// paths call it before farming so a misconfigured experiment fails
// loudly instead of simulating nothing (or simulating a corrupted
// transfer model).
func ValidateJobs(jobs []rckskel.Job) error {
	if len(jobs) == 0 {
		return fmt.Errorf("farm: %w", ErrNoJobs)
	}
	if err := rckskel.ValidateJobs(jobs); err != nil {
		return fmt.Errorf("farm: %w", err)
	}
	return nil
}

// Runtime returns the session's runtime.
func (s *Session) Runtime() Runtime { return s.rt }

// Placement returns the slave placement.
func (s *Session) Placement() Placement { return s.place }

// Trace returns the effective activity recorder (the configured one, or
// the session's internal recorder).
func (s *Session) Trace() *trace.Recorder { return s.rec }

// Team returns the session's default team: the configured master plus
// one slave process per placed worker. Built on first use; requires an
// on-chip master.
func (s *Session) Team() *rckskel.Team {
	if s.team == nil {
		if s.cfg.MasterCore == HostMaster {
			panic("farm: the default team requires an on-chip master")
		}
		t := rckskel.NewTeam(s.rt.Comm, s.cfg.MasterCore, s.place.WorkerLeads)
		if s.cfg.PollingScale >= 0 {
			t.DiscoveryCostScale = s.cfg.PollingScale
		}
		t.Trace = s.rec
		t.SetMetrics(s.cfg.Metrics, s.labels...)
		s.team = t
	}
	return s.team
}

// StartSlaves spawns the default team's slave loops with one handler.
func (s *Session) StartSlaves(h rckskel.Handler) { s.Team().StartSlaves(h) }

// Collect performs the session's result bookkeeping: batched results
// are unwrapped into their per-job sub-results, each result is
// counted, and forwarded to the configured Collector. FarmWork calls it
// for every result; run paths with bespoke collection loops (the
// distributed baseline) call it directly.
func (s *Session) Collect(r rckskel.Result) { s.deliver(r, nil) }

// deliver unwraps BatchResults (attributing sub-results to the
// collecting slave) and routes every per-job result through the
// session bookkeeping, the configured Collector, and the per-farm
// extra callback. Collectors therefore observe exactly the same
// result stream — same payloads, same order — as on a classic
// one-message-per-job farm.
func (s *Session) deliver(r rckskel.Result, extra func(rckskel.Result)) {
	if br, ok := r.Payload.(BatchResult); ok {
		for _, sub := range br.Results {
			sub.Slave = r.Slave
			s.deliver(sub, extra)
		}
		return
	}
	s.rep.Collected++
	if s.cfg.Collector != nil {
		s.cfg.Collector.Collect(r)
	}
	if extra != nil {
		extra(r)
	}
}

// mergeStats folds one farm execution's statistics into the report.
func (s *Session) mergeStats(st rckskel.Stats) {
	for core, n := range st.JobsPerSlave {
		s.rep.FarmStats.JobsPerSlave[core] += n
	}
	s.rep.FarmStats.PollProbes += st.PollProbes
	s.rep.FarmStats.MakespanSeconds += st.MakespanSeconds
}

// Run spawns the master process (on the configured core, or as a host
// process when MasterCore is HostMaster), executes the simulation to
// completion and returns the finalized report. name labels an off-chip
// master process ("" = "master"); on-chip masters are named after their
// core. Slaves must have been started (or custom core processes
// spawned) before Run is called, matching the construction order of the
// hand-rolled run paths this layer replaces.
func (s *Session) Run(name string, body func(m *Master)) (Report, error) {
	s.SpawnMaster(name, body)
	err := s.rt.Engine.Run()
	s.finalize()
	return s.rep, err
}

// SpawnMaster schedules the master process without running the engine:
// multi-chip sessions spawn one master per chip session (sub-masters
// plus the root) and then drive the shared engine once. Session.Run is
// SpawnMaster + engine run + finalize.
func (s *Session) SpawnMaster(name string, body func(m *Master)) {
	master := &Master{s: s}
	wrapped := func(p *sim.Process) {
		master.P = p
		body(master)
		s.rep.TotalSeconds = p.Now()
	}
	if s.cfg.MasterCore == HostMaster {
		if name == "" {
			name = "master"
		}
		s.rt.Engine.Spawn(name, wrapped)
	} else {
		s.rt.Chip.SpawnCore(s.cfg.MasterCore, wrapped)
	}
}

// finalize derives the per-core busy/utilization columns from the
// trace and, on fault-tolerant runs, the fault summary block. A chip
// session of a multi-chip run shares the recorder with its siblings,
// so it keeps only the tracks matching its own chip's core-name prefix.
func (s *Session) finalize() {
	prefix := s.rt.Chip.Config().NamePrefix
	for _, track := range s.rec.Tracks() {
		if prefix != "" && !strings.HasPrefix(track, prefix) {
			continue
		}
		busy := s.rec.BusySeconds(track)
		s.rep.CoreBusySeconds[track] = busy
		if s.rep.TotalSeconds > 0 {
			s.rep.CoreUtilization[track] = s.rec.Utilization(track, 0, s.rep.TotalSeconds)
		}
	}
	if reg := s.cfg.Metrics; reg != nil {
		mr := &MetricsReport{
			PeakMailboxDepth: reg.Gauge("farm.master.mailbox_peak", s.labels...).Value(),
			JobStages:        map[string]StageAgg{},
		}
		for _, stage := range jobStageNames {
			h := reg.Histogram("farm.job."+stage+"_seconds", metrics.TimeBuckets, s.labels...)
			mr.JobStages[stage] = StageAgg{
				Count:        h.Count(),
				TotalSeconds: h.Sum(),
				MeanSeconds:  h.Mean(),
				MaxSeconds:   h.MaxValue(),
			}
		}
		mesh := s.rt.Chip.Mesh()
		mesh.PublishMetrics()
		if worst := mesh.WorstLink(); worst.BusySeconds > 0 {
			mr.WorstLink = fmt.Sprintf("%v->%v", worst.From, worst.To)
			mr.WorstLinkBusySeconds = worst.BusySeconds
			if s.rep.TotalSeconds > 0 {
				mr.WorstLinkUtilization = worst.BusySeconds / s.rep.TotalSeconds
			}
			mr.LinkHeatmap = mesh.LinkHeatmap()
		}
		s.rep.Metrics = mr
	}
	s.rep.Wire = s.wireReport()
	if s.injector != nil {
		s.rep.Faults = &FaultStats{
			Injected:          s.injector.Stats(),
			DeadCores:         s.injector.DeadCores(),
			Timeouts:          s.ft.Timeouts,
			DetectedCorrupt:   s.ft.CorruptDetected,
			Retries:           s.ft.Retries,
			Reassigned:        s.ft.Reassigned,
			DuplicatesDropped: s.ft.DuplicatesDropped,
			LostJobs:          s.ft.LostJobs,
			Blacklisted:       s.ft.Blacklisted,
		}
	}
}

// BuildChromeTrace combines an activity recorder and a metrics registry
// into one Perfetto-loadable Chrome trace: a thread track per traced
// core (compute slices on slaves, collect slices on the master, fault
// marks) plus a counter track per registry time series (master mailbox
// depth, mesh links in flight). Either argument may be nil.
func BuildChromeTrace(rec *trace.Recorder, reg *metrics.Registry) *trace.ChromeTrace {
	ct := trace.NewChromeTrace()
	if rec != nil {
		ct.AddRecorder(rec)
	}
	for _, ss := range reg.Snapshot().Series {
		pts := make([]trace.CounterPoint, len(ss.Points))
		for i, p := range ss.Points {
			pts[i] = trace.CounterPoint{T: p.T, V: p.V}
		}
		ct.AddCounter(ss.Key, pts)
	}
	return ct
}

// Master wraps the running master process with report bookkeeping. It
// is only valid inside the body passed to Session.Run.
type Master struct {
	// P is the master's simulated process.
	P *sim.Process
	s *Session
}

// Session returns the owning session.
func (m *Master) Session() *Session { return m.s }

// Chip returns the runtime's chip model.
func (m *Master) Chip() *scc.Chip { return m.s.rt.Chip }

// LoadResidues charges the one-time cost of parsing n residues into
// memory and records Report.LoadSeconds.
func (m *Master) LoadResidues(n int) {
	m.s.rt.Chip.Compute(m.P, costmodel.Counter{ResiduesLoaded: uint64(n)})
	m.s.rep.LoadSeconds = m.P.Now()
}

// Work is one master's prepared workload: a single job queue every
// slave draws from (Jobs: the paper's FARM) or one pull queue per slave
// group (Queues: cache-affinity deals, per-method partitions). An empty
// Work farms nothing.
type Work struct {
	Jobs   []rckskel.Job
	Queues [][]rckskel.Job
	// QueueOf maps a slave core to its index in Queues; nil gives worker
	// w of the placement queue w.
	QueueOf map[int]int
}

// FarmWork farms w on the default team (the paper's FARM construct, its
// failure detection armed by Config.FT), routing every result through
// the session's collection bookkeeping and then collect (may be nil).
// The report accumulates the farm's statistics across calls.
func (m *Master) FarmWork(w Work, collect func(rckskel.Result)) {
	queues, queueOf := w.Queues, []int(nil)
	if queues == nil {
		queues = [][]rckskel.Job{w.Jobs}
	} else {
		queueOf = make([]int, len(m.s.place.WorkerLeads))
		for i, lead := range m.s.place.WorkerLeads {
			queueOf[i] = i
			if w.QueueOf != nil {
				queueOf[i] = w.QueueOf[lead]
			}
		}
	}
	st, ft := m.s.Team().FARM(m.P, queues, queueOf, m.s.cfg.FT, func(r rckskel.Result) {
		m.s.deliver(r, collect)
	})
	m.s.mergeStats(st)
	m.s.ft.Timeouts += ft.Timeouts
	m.s.ft.CorruptDetected += ft.CorruptDetected
	m.s.ft.Retries += ft.Retries
	m.s.ft.Reassigned += ft.Reassigned
	m.s.ft.DuplicatesDropped += ft.DuplicatesDropped
	m.s.ft.LostJobs += ft.LostJobs
	m.s.ft.Blacklisted = append(m.s.ft.Blacklisted, ft.Blacklisted...)
}

// Terminate shuts down the default team's slaves.
func (m *Master) Terminate() { m.s.Team().Terminate(m.P) }

// String renders a one-line report summary.
func (r Report) String() string {
	return fmt.Sprintf("farm[%s]: slaves=%d workers=%d effective=%d total=%.3fs load=%.3fs collected=%d",
		r.Backend, r.Slaves, r.Workers, r.EffectiveCores, r.TotalSeconds, r.LoadSeconds, r.Collected)
}
