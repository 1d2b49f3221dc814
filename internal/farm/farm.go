// Package farm is the unified run harness beneath every FARM execution
// path in this repository (core's run pipeline and the multi-criteria
// PSC farms). It owns the pieces those paths used to duplicate:
// simulation runtime construction (engine + chip + comm), slave placement
// (master skip, thread-grouped tile workers), job building, master
// spawn, result collection through a caller's Collect hook, termination,
// and a uniform Report with per-core utilization derived from trace. It
// also owns the wire protocol and job timing: a caller hands it pairs, a
// table of structure sizes and a per-pair handler, and the farm sizes,
// batches and caches the jobs, prices the shards it scatters, scales ops
// by the worker's threads and arms fault deadlines itself.
//
// A path composes a Session instead of copying a 150-line run function:
//
//	s, _ := farm.New(farm.Config{Chip: chip}, n)
//	s.StartSlaves(handler)
//	jobs, _ := s.PrepareJobs(0, pairs, 0, structBytes)
//	rep, err := s.Run(func(m *farm.Master) {
//	        m.LoadResidues(ds.TotalResidues())
//	        m.FarmWork(farm.Work{Queues: [][]rckskel.Job{jobs}}, nil)
//	        m.Terminate()
//	})
//
// That is a board of one chip: the paper's flat farm. With Config.Chips
// = N > 1 the same calls build N chips on one engine, joined by the
// interchip fabric: prepare one Work per chip and stage (PrepareJobs(c,
// ...)) and let the root body hand each stage's remote shards out with
// m.Scatter before it farms its own; Run spawns the sub-masters and
// drains the gather.
package farm

import (
	"cmp"
	"errors"
	"fmt"
	"strconv"

	"rckalign/internal/costmodel"
	"rckalign/internal/fault"
	"rckalign/internal/interchip"
	"rckalign/internal/metrics"
	"rckalign/internal/noc"
	"rckalign/internal/rcce"
	"rckalign/internal/rckskel"
	"rckalign/internal/scc"
	"rckalign/internal/sim"
	"rckalign/internal/trace"
)

// Config describes one farm session: a board of Chips chips, each with
// its master on core 0 (paper: "the first core supplied to the program").
type Config struct {
	// Chip is the simulated SCC, the same on every chip of the board.
	Chip scc.Config
	// ThreadsPerWorker groups that many consecutive slave cores into one
	// worker process, the paper's future work ("building support for
	// threading into the base library"). At 2 each worker uses both cores
	// of its tile and finishes a job in 1/(2*0.9) of the serial time (DP
	// and scoring parallelise well, the Kabsch solves less so), which
	// StartSlaves charges to the handler's ops. 0 or 1 = the paper's
	// single-threaded slaves; the leftover cores of a slave count that is
	// not a multiple are unused (Report.DroppedCores).
	ThreadsPerWorker int
	// PollingScale scales the master's round-robin polling discovery
	// cost on every team (1 = the paper's busy polling, 0 = ideal
	// event-driven notification). Values below zero are treated as 1.
	PollingScale float64
	// Trace, when non-nil, receives per-core activity intervals and fault
	// marks. Report utilization does not need it: the session merges
	// every track's busy time as the intervals arrive.
	Trace *trace.Recorder
	// Metrics, when non-nil, receives counters, histograms and time
	// series from every layer of the run (sim engine, mesh links, rcce
	// volumes, per-job latency stages, master mailbox depth). Recording
	// is passive — it changes no Report field, Report.Metrics included —
	// and nil (the default) is free.
	Metrics *metrics.Registry
	// Collect, when non-nil, receives every result gathered by the
	// master(s), after the session's own bookkeeping and before the run
	// path's domain logic (the -scores-out dump, test sinks).
	Collect func(rckskel.Result)
	// Batch bundles up to this many consecutive jobs into one request
	// message with one batched result (0 or 1 = one message per job,
	// the classic protocol). PrepareJobs bundles the jobs, StartSlaves
	// runs a batch's jobs back to back through the per-pair handler, and
	// under an injecting Faults plan a batch of k jobs is armed with k
	// times the per-job deadline.
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
	// Report.Faults. A plan that injects something also arms every farm's
	// failure detection (see Session.Run): a job not collected three times
	// the costliest prepared job's compute time after its dispatch (a
	// batch: Batch times that) is presumed lost and retried (see
	// rckskel.FARM), so every timeout lands in Report.Faults. A non-nil
	// but empty plan injects and arms nothing: the report is identical to
	// the plan-free run's but for that block.
	Faults *fault.Plan
	// Chips is the board's chip count (0 or 1 = one chip, the paper's
	// flat farm). On more than one, core names are prefixed per chip
	// ("c1.rck00"), metric keys are labelled "chip"/"cN", every chip owns
	// its cache model and wire accounting, and Faults carries global core
	// ids (chip = id / cores per chip), split per chip with
	// fault.SplitPlan; every chip arms the same deadline.
	Chips int
	// Interchip is the board-level interconnect profile (zero value =
	// interchip.DefaultConfig); unused on one chip.
	Interchip interchip.Config
	// Gather selects the result-aggregation topology (zero value = a
	// gather tree of DefaultGatherArity); unused on one chip.
	Gather GatherConfig
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
	// Collected counts per-pair results received by the master(s): each
	// sub-result of a batch counts once.
	Collected int
	// CoreBusySeconds maps each traced core to its busy time.
	CoreBusySeconds map[string]float64
	// CoreUtilization maps each traced core to its busy fraction of the
	// run window [0, TotalSeconds].
	CoreUtilization map[string]float64
	// Faults summarises fault injection and recovery (nil without a
	// fault plan).
	Faults *FaultStats
	// Metrics summarises the run's key observability signals, on every
	// run, from the layers that count them; a registry changes none of it.
	Metrics *MetricsReport
	// Wire summarises the cache/batch wire model: hit rate, input bytes
	// saved, batch statistics (nil on classic runs).
	Wire *WireReport
	// Chips is the chip count of a board of more than one chip (0 on one
	// chip, whose report is the paper's flat farm's).
	Chips int
	// PerChip breaks a board down chip by chip (nil on one chip).
	PerChip []ChipReport
	// Interchip summarises the board-level interconnect traffic of a
	// board of more than one chip (nil on one chip).
	Interchip *InterchipReport
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
	// cores over the board's run window.
	MeanUtilization float64
	// PeakMailboxDepth is the chip master's deepest mailbox.
	PeakMailboxDepth float64
	// Wire is the chip-local cache/batch wire accounting (nil when the
	// wire model is off).
	Wire *WireReport
	// Faults is the chip-local fault summary (core ids chip-local; nil
	// on fault-free runs). Report.Faults sums them with global ids.
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
	// fan-in (chips-1 for flat), deepest tree level, and the number of
	// chips reporting directly to the root.
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
	// IntraChipBytes sums the on-chip RCCE wire volume across all chips.
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

// MetricsReport is the Report block of the signals that diagnose the
// paper's master bottleneck at a glance, read from the teams and meshes
// that own them (no metrics registry needed).
type MetricsReport struct {
	// PeakMailboxDepth is the most slaves ever simultaneously waiting
	// with a ready result for the master to collect.
	PeakMailboxDepth float64
	// WorstLink names the busiest directed mesh link ("(x,y)->(x,y)");
	// empty when no link carried traffic.
	WorstLink string
	// WorstLinkBusySeconds is that link's accumulated busy time.
	WorstLinkBusySeconds float64
	// WorstLinkUtilization is that busy time as a fraction of the run.
	WorstLinkUtilization float64
	// JobStages aggregates the per-job latency decomposition, keyed
	// dispatch_wait, input_xfer, compute, result_xfer, collect_wait.
	JobStages map[string]StageAgg
	// LinkHeatmap is the mesh's per-link busy-time grid rendered as text
	// (empty when no link carried traffic); see noc.Mesh.LinkHeatmap.
	LinkHeatmap string
}

// StageAgg summarises one stage of the per-job latency decomposition.
type StageAgg struct {
	Count        int64
	TotalSeconds float64
	MeanSeconds  float64
	MaxSeconds   float64
}

// FaultStats is the Report block for fault-tolerant runs: what was
// injected at the wire and cores, and what the farm's detection and
// recovery machinery did about it. LostJobs counts farmed jobs, a batch
// as one; the lost pairs are the pairs handed to PrepareJobs minus
// Report.Collected.
type FaultStats struct {
	// Injected counts the faults the plan actually delivered.
	Injected fault.Stats
	// DeadCores lists fail-stopped cores, sorted.
	DeadCores []int
	// FTStats sums the recovery counters of every farm the master
	// executed.
	rckskel.FTStats
}

// ErrInvariant reports a run whose own accounting does not add up (see
// Session.Run): a simulator or harness bug, never a property of the
// workload.
var ErrInvariant = errors.New("farm: conservation invariant violated")

// Session is a constructed board: one engine, Config.Chips chips (one,
// the paper's flat farm, unless configured otherwise), their placement,
// teams and wire models and, on more than one chip, the fabric joining
// them. Start slaves (or spawn custom core processes) and prepare each
// chip's work, then call Run with the root master's body.
type Session struct {
	cfg    Config
	engine *sim.Engine
	place  Placement
	act    activity
	chips  []*chip
	rep    Report
	sizes  []int // the structure sizes PrepareJobs was handed

	handler  rckskel.Handler // StartSlaves' per-pair handler, scaled
	timed    []rckskel.Job   // under an injecting plan, the per-pair jobs PrepareJobs made
	deadline float64         // per job, armed by Run from timed

	// The board tier (more than one chip only): the fabric, the gather
	// topology and the fabric bytes nobody but the board accounts for.
	fabric       *interchip.Fabric
	gather       GatherConfig
	aggWireBytes int64
	aggMessages  int64
	controlBytes int64
	levels       map[int]*GatherLevel // blob hops by gather tree level
	hot          *chip                // busiest mesh link's; finalize names it ("cN:" on a board)
}

// chip is one chip of a board with everything it accumulates itself.
type chip struct {
	id       int
	sc       *scc.Chip
	comm     *rcce.Comm
	team     *rckskel.Team
	injector *fault.Injector
	// labels scope the chip's metric keys ("chip"/"cN" on a board; nil on
	// one chip, whose keys stay those of the paper's flat farm).
	labels []string

	stats     rckskel.Stats // chip-local core ids
	faults    FaultStats    // recovery counts; injected ones are the injector's
	farms     int
	collected int
	total     float64 // when the chip's master finished
	ledger    ledger

	// Cache/batch wire model state (see batch.go / structcache.go);
	// hBatchJobs is set once PrepareJobs shaped a queue of the chip under
	// a registry.
	cache      *StructCache
	wire       wireStats
	hBatchJobs *metrics.Histogram

	// Fabric bytes of this chip's shards, of the aggregate blobs it
	// originated, and of the per-pair protocol it replaced (0 on chip 0);
	// the shards and jobs Scatter sent, whether the last has gone, and
	// shipped[id] = the last shard that carried structure id.
	shardBytes, resultBytes, perPairBytes int64
	shards, scattered                     int
	lastSent                              bool
	shipped                               []int
}

// ledger balances the jobs PrepareJobs made for a chip against those its
// farms delivered or wrote off; a batch is one job of several pairs.
type ledger struct{ jobs, pairs, doneJobs int }

// New validates the configuration and builds the board of slaves slave
// cores per chip: the chips, each with its runtime, metric labels, its
// default team and, under a fault plan, its injector armed with its
// share of the plan (kill/stall events scheduled, wire interposer
// installed), and on more than one chip the fabric. A chip count of 0 or
// 1 builds one chip.
func New(cfg Config, slaves int) (*Session, error) {
	if cfg.Chips < 0 {
		return nil, fmt.Errorf("farm: chip count %d is negative", cfg.Chips)
	}
	n := max(cfg.Chips, 1)
	s := &Session{engine: sim.NewEngine(), act: activity{rec: cfg.Trace, busy: map[string]*trace.Busy{}}}
	plans := []*fault.Plan{cfg.Faults} // one per chip
	if n > 1 {
		var err error
		if s.gather, err = cfg.Gather.resolved(); err != nil {
			return nil, err
		}
		if s.gather.Mode == GatherFlat {
			s.gather.Arity = n - 1
		}
		if plans, err = fault.SplitPlan(cfg.Faults, n, cfg.Chip.NumCores()); err != nil {
			return nil, fmt.Errorf("farm: %w: %v", ErrFaultPlan, err)
		}
		s.fabric = interchip.New(n, cmp.Or(cfg.Interchip, interchip.DefaultConfig()))
		s.fabric.SetMetrics(cfg.Metrics)
		s.levels = map[int]*GatherLevel{}
	}
	s.cfg = cfg
	var err error
	if s.place, err = place(cfg, slaves); err != nil {
		return nil, err
	}
	if cfg.Metrics != nil {
		s.engine.SetMetrics(cfg.Metrics)
	}
	for c := 0; c < n; c++ {
		chipCfg := cfg.Chip
		var labels []string
		if n > 1 {
			chipCfg.NamePrefix = fmt.Sprintf("c%d.%s", c, cfg.Chip.NamePrefix)
			labels = []string{"chip", fmt.Sprintf("c%d", c)}
		}
		sc := scc.New(s.engine, chipCfg)
		ch := &chip{id: c, sc: sc, comm: rcce.New(sc), labels: labels, stats: rckskel.Stats{JobsPerSlave: map[int]int{}}}
		if cfg.Faults != nil {
			if err := plans[c].Validate(chipCfg.NumCores(), 0); err != nil {
				return nil, fmt.Errorf("farm: %w: %v", ErrFaultPlan, err)
			}
			ch.injector = fault.NewInjector(plans[c])
			ch.injector.Arm(sc, &s.act)
			ch.comm.SetInterposer(ch.injector)
		}
		// The chip's default team: its master plus one slave process per
		// placed worker.
		ch.team = rckskel.NewTeam(ch.comm, 0, s.place.WorkerLeads)
		if cfg.PollingScale >= 0 {
			ch.team.DiscoveryCostScale = cfg.PollingScale
		}
		ch.team.Trace = &s.act
		if cfg.Metrics != nil {
			sc.Mesh().SetMetrics(cfg.Metrics, labels...)
			ch.comm.SetMetrics(cfg.Metrics, labels...)
			ch.team.SetMetrics(cfg.Metrics, labels...)
		}
		s.chips = append(s.chips, ch)
	}
	s.rep = Report{
		Backend:         "scc-sim",
		Slaves:          n * slaves,
		Workers:         n * len(s.place.WorkerLeads),
		EffectiveCores:  n * s.place.EffectiveCores,
		DroppedCores:    n * s.place.DroppedCores,
		FarmStats:       rckskel.Stats{JobsPerSlave: map[int]int{}},
		CoreBusySeconds: map[string]float64{},
		CoreUtilization: map[string]float64{},
	}
	if n > 1 {
		s.rep.Backend, s.rep.Chips = fmt.Sprintf("multichip-%d", n), n
	}
	return s, nil
}

// Placement returns the slave placement, the same on every chip
// (chip-local core ids).
func (s *Session) Placement() Placement { return s.place }

// StartSlaves spawns every chip's slave loops with one per-pair handler,
// whose ops it scales by Placement.OpScale on thread-grouped workers; on
// a batched session each slave runs a batch's jobs through it back to
// back and returns one BatchResult. The handler must be a pure function
// of its job: under an injecting fault plan Run evaluates it once more
// per prepared job to time the costliest.
func (s *Session) StartSlaves(h rckskel.Handler) {
	if scale := s.place.OpScale; scale != 1 {
		unscaled := h
		h = func(job rckskel.Job) (any, costmodel.Counter, int) {
			payload, ops, bytes := unscaled(job)
			return payload, ops.Scaled(scale), bytes
		}
	}
	s.handler = h
	if s.cfg.Batch > 1 {
		h = batchHandler(h)
	}
	for _, c := range s.chips {
		c.team.StartSlaves(h)
	}
}

// deliver unwraps BatchResults (attributing sub-results to the
// collecting slave) and routes every per-job result through chip c's
// bookkeeping, the configured Collect hook, and the per-farm extra
// callback. The hook therefore observes exactly the same result stream
// — same payloads, same order — as on a classic one-message-per-job
// farm.
func (s *Session) deliver(c *chip, r rckskel.Result, extra func(rckskel.Result)) {
	if br, ok := r.Payload.(BatchResult); ok {
		for _, sub := range br.Results {
			sub.Slave = r.Slave
			s.deliver(c, sub, extra)
		}
		return
	}
	c.collected++
	if s.cfg.Collect != nil {
		s.cfg.Collect(r)
	}
	if extra != nil {
		extra(r)
	}
}

// Run executes the board and returns the finalized report. body is the
// root master's program, on chip 0's core 0. Slaves must have been
// started before. On more than one chip Run also spawns every remote
// chip's sub-master (see boardLoop), and the root drains the gather
// after body returns.
//
// Under a fault plan that injects something, Run first arms the per-job
// deadline: three times the compute seconds of the costliest job
// PrepareJobs made, as the handler charges it, a margin that covers
// staging, transfer and discovery so a healthy slave never trips it.
//
// Every run is checked against its own accounting, a deadlocked one
// too; Run joins the engine's error with a wrapped ErrInvariant when a prepared job was neither
// collected exactly once nor written off, a traced core was busy longer
// than the run, or the fabric carried bytes beyond shards, blobs and
// control.
func (s *Session) Run(body func(m *Master)) (Report, error) {
	if s.handler != nil {
		worst := 0.0
		for _, job := range s.timed {
			_, ops, _ := s.handler(job)
			worst = max(worst, s.cfg.Chip.CPU.Seconds(ops))
		}
		s.deadline = 3 * worst
	}
	for _, c := range s.chips[1:] {
		s.spawn(c, func(m *Master) { s.boardLoop(m, true) })
	}
	s.spawn(s.chips[0], func(m *Master) {
		body(m)
		s.boardLoop(m, false)
	})
	err := s.engine.Run()
	return s.rep, errors.Join(err, s.finalize())
}

// spawn schedules chip c's master process, on its core 0, running body.
func (s *Session) spawn(c *chip, body func(m *Master)) {
	m := &Master{s: s, c: c}
	c.sc.SpawnCore(0, func(p *sim.Process) {
		m.P = p
		body(m)
		c.total = p.Now()
	})
}

// finalize writes every chip's contribution into the board report (core
// ids chip*coresPerChip + local, busy seconds, wire, fault and metrics
// counts, a ChipReport per chip and the Interchip block on a board),
// publishes the layers' statistics and checks the run's invariants.
func (s *Session) finalize() error {
	rep, n := &s.rep, len(s.chips)
	rep.TotalSeconds = s.chips[0].total
	if s.cfg.Faults != nil {
		rep.Faults = &FaultStats{DeadCores: []int{}}
	}
	rep.Metrics = &MetricsReport{JobStages: map[string]StageAgg{}}
	var wire wireStats
	err := s.act.err
	for _, c := range s.chips {
		base := c.id * s.cfg.Chip.NumCores()
		for core, jobs := range c.stats.JobsPerSlave {
			rep.FarmStats.JobsPerSlave[base+core] += jobs
		}
		rep.FarmStats.PollProbes += c.stats.PollProbes
		rep.Collected += c.collected
		cr := ChipReport{
			Chip:         c.id,
			Master:       c.sc.CoreName(0),
			Collected:    c.collected,
			TotalSeconds: c.total,
			FarmStats:    c.stats,
			ShardBytes:   c.shardBytes,
			ResultBytes:  c.resultBytes,
		}
		var uerr error
		cr.MeanUtilization, uerr = s.utilization(c)
		cw := c.wireTotals()
		wire.add(cw)
		cr.Wire = cw.report()
		if c.injector != nil {
			f := c.faults
			f.Injected, f.DeadCores = c.injector.Stats(), c.injector.DeadCores()
			cr.Faults = &f
			rep.Faults.add(&f, base)
		}
		cr.PeakMailboxDepth = float64(c.team.MailboxPeak())
		s.chipMetrics(c)
		l := c.ledger
		lost, lostPairs := c.faults.LostJobs, l.pairs-c.collected
		if l.doneJobs+lost != l.jobs || lostPairs < lost || lostPairs > lost*max(s.cfg.Batch, 1) {
			uerr = cmp.Or(uerr, fmt.Errorf("%w: chip %d prepared %d jobs (%d pairs), collected %d jobs (%d pairs), lost %d",
				ErrInvariant, c.id, l.jobs, l.pairs, l.doneJobs, c.collected, lost))
		}
		err = cmp.Or(err, uerr)
		if n > 1 {
			rep.PerChip = append(rep.PerChip, cr)
		}
	}
	rep.Wire = wire.report()
	mr := rep.Metrics
	for stage, agg := range mr.JobStages {
		if agg.Count > 0 {
			agg.MeanSeconds = agg.TotalSeconds / float64(agg.Count)
		}
		mr.JobStages[stage] = agg
	}
	if c := s.hot; c != nil && rep.TotalSeconds > 0 {
		mr.WorstLink = linkName(c.sc.Mesh().WorstLink(), n > 1, c.id)
		mr.WorstLinkUtilization = mr.WorstLinkBusySeconds / rep.TotalSeconds
		mr.LinkHeatmap = c.sc.Mesh().LinkHeatmap()
	}
	if s.cfg.Metrics != nil {
		s.publishMetrics()
	}
	// The makespan: one farm on one chip (the paper's runs) is timed by
	// the farm itself, first dispatch to last collect, so neither the
	// load nor Terminate is in it. A board — scatter, every chip's farm,
	// Terminate and the gather — and a master that runs several farms
	// back to back (the out-of-core schedule, whose block loads replace
	// LoadResidues) are timed by the root's clock after the load.
	rep.FarmStats.MakespanSeconds = s.chips[0].stats.MakespanSeconds
	if n > 1 || s.chips[0].farms > 1 {
		rep.FarmStats.MakespanSeconds = rep.TotalSeconds - rep.LoadSeconds
	}
	if n > 1 {
		rep.Interchip = s.interchipReport()
		if ic := rep.Interchip; ic.Bytes != ic.ShardBytes+ic.ResultBytes+s.controlBytes {
			err = cmp.Or(err, fmt.Errorf("%w: fabric carried %d bytes, shards %d + blobs %d + control %d",
				ErrInvariant, ic.Bytes, ic.ShardBytes, ic.ResultBytes, s.controlBytes))
		}
	}
	return err
}

// linkName renders a link as "(x,y)->(x,y)", prefixed "cN:" with its
// chip on a board, in one allocation.
func linkName(l noc.LinkLoad, board bool, chip int) string {
	var buf [48]byte
	b := buf[:0]
	if board {
		b = append(b, 'c')
		b = strconv.AppendInt(b, int64(chip), 10)
		b = append(b, ':')
	}
	for i, end := range [2]noc.Coord{l.From, l.To} {
		if i > 0 {
			b = append(b, "->"...)
		}
		b = append(b, '(')
		b = strconv.AppendInt(b, int64(end.X), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(end.Y), 10)
		b = append(b, ')')
	}
	return string(b)
}

// utilization writes chip c's traced cores into the board's busy and
// utilization columns and returns their mean busy fraction of the run,
// summed in core order (every track is a core's).
// A core busy longer than the run is an ErrInvariant, unless the chip's
// farm timed a job out: its slave, stalled or just slower than the
// deadline, is written off and goes on computing, so its last span may
// outlast the master that gave up on it. Only that span can: no slave
// starts a job after Terminate. Utilization clips it to the run.
func (s *Session) utilization(c *chip) (float64, error) {
	total, writtenOff := s.rep.TotalSeconds, c.faults.Timeouts > 0
	var err error
	sum, k := 0.0, 0
	for core := range c.sc.NumCores() {
		track := c.sc.CoreName(core)
		b := s.act.busy[track]
		if b == nil {
			continue
		}
		busy := b.Seconds()
		if busy < 0 || busy > total && !writtenOff {
			err = cmp.Or(err, fmt.Errorf("%w: %s busy %v s outside the run's [0, %v] s", ErrInvariant, track, busy, total))
		}
		s.rep.CoreBusySeconds[track] = busy
		if total > 0 {
			s.rep.CoreUtilization[track] = min(b.Before(total)/total, 1)
		}
		sum += busy
		k++
	}
	if k == 0 || total <= 0 {
		return 0, err
	}
	return sum / (float64(k) * total), err
}

// activity is the session's trace.Sink: each track's busy time, merged
// as its intervals arrive; intervals and marks also reach the configured
// recorder, if any. One process writes a track, in time order, so an
// interval starting before its track's open run is an ErrInvariant.
type activity struct {
	rec  *trace.Recorder
	busy map[string]*trace.Busy // mark-only tracks too, at zero
	err  error
}

// Add records an interval; like a Recorder, it ignores one with
// end <= start, which then creates no track.
func (a *activity) Add(track string, start, end float64, label string) {
	if a.rec != nil {
		a.rec.Add(track, start, end, label)
	}
	if end <= start {
		return
	}
	b := a.busy[track]
	if b == nil {
		b = &trace.Busy{}
		a.busy[track] = b
	}
	if !b.Add(start, end) {
		a.err = cmp.Or(a.err, fmt.Errorf("%w: %s interval [%v, %v] starts before the track's open span", ErrInvariant, track, start, end))
	}
}

// AddMark records a mark, creating its track.
func (a *activity) AddMark(track string, t float64, label string) {
	if a.rec != nil {
		a.rec.AddMark(track, t, label)
	}
	if a.busy[track] == nil {
		a.busy[track] = &trace.Busy{}
	}
}

// add folds a chip's fault block into the board's, its core ids offset
// by base (chips come in order, so DeadCores stays sorted).
func (f *FaultStats) add(c *FaultStats, base int) {
	f.Injected.CoresKilled += c.Injected.CoresKilled
	f.Injected.CoresStalled += c.Injected.CoresStalled
	f.Injected.Dropped += c.Injected.Dropped
	f.Injected.Delayed += c.Injected.Delayed
	f.Injected.Corrupted += c.Injected.Corrupted
	f.FTStats.Add(c.FTStats)
	for _, core := range c.DeadCores {
		f.DeadCores = append(f.DeadCores, base+core)
	}
}

// chipMetrics folds chip c's team and mesh into the board's block: deepest
// mailbox, job stages in chip order, and the busiest link's chip in s.hot.
func (s *Session) chipMetrics(c *chip) {
	mr := s.rep.Metrics
	mr.PeakMailboxDepth = max(mr.PeakMailboxDepth, float64(c.team.MailboxPeak()))
	for st, tot := range c.team.StageTotals() {
		agg := mr.JobStages[rckskel.JobStages[st]]
		agg.Count += tot.Count
		agg.TotalSeconds += tot.Sum
		agg.MaxSeconds = max(agg.MaxSeconds, tot.Max)
		mr.JobStages[rckskel.JobStages[st]] = agg
	}
	if worst := c.sc.Mesh().WorstLink(); worst.BusySeconds > mr.WorstLinkBusySeconds {
		mr.WorstLinkBusySeconds, s.hot = worst.BusySeconds, c
	}
}

// publishMetrics writes what the board's layers counted themselves into
// the registry, once, when the run has drained: each of these values has
// one owner, the layer's own statistic, and the registry copies it.
func (s *Session) publishMetrics() {
	add := func(name string, v int64, labels ...string) {
		s.cfg.Metrics.Counter(name, labels...).Add(float64(v))
	}
	for _, c := range s.chips {
		c.sc.Mesh().PublishMetrics()
		c.comm.PublishMetrics()
		s.cfg.Metrics.Gauge("farm.master.mailbox_peak", c.labels...).Max(float64(c.team.MailboxPeak()))
		add("farm.jobs.completed", int64(c.ledger.doneJobs), c.labels...)
		if c.hBatchJobs != nil {
			add("farm.wire.dispatches", c.wire.dispatches, c.labels...)
			add("farm.wire.input_bytes_baseline", c.wire.baselineBytes, c.labels...)
			add("farm.wire.input_bytes_shipped", c.wire.shippedBytes, c.labels...)
		}
		if c.cache != nil {
			cs := c.cache.Stats()
			add("farm.cache.hits", cs.Hits, c.labels...)
			add("farm.cache.misses", cs.Misses, c.labels...)
			add("farm.cache.evictions", cs.Evictions, c.labels...)
			add("farm.cache.forced_reships", cs.ForcedReships, c.labels...)
			add("farm.cache.bytes_shipped", cs.BytesShipped, c.labels...)
			add("farm.cache.bytes_saved", cs.BytesSaved, c.labels...)
		}
	}
	if s.fabric != nil {
		s.fabric.PublishMetrics()
	}
	if s.aggMessages > 0 {
		add("interchip.gather.messages", s.aggMessages)
		add("interchip.gather.bytes", s.aggWireBytes)
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

// Master wraps a running master process — the root, or on a board a
// chip's sub-master — with its chip's bookkeeping. It is only valid
// inside the body passed to Session.Run.
type Master struct {
	// P is the master's simulated process.
	P *sim.Process
	s *Session
	c *chip
}

// Chip returns the master's chip model.
func (m *Master) Chip() *scc.Chip { return m.c.sc }

// LoadResidues charges the one-time cost of parsing n residues into
// memory and records Report.LoadSeconds.
func (m *Master) LoadResidues(n int) {
	m.c.sc.Compute(m.P, costmodel.Counter{ResiduesLoaded: uint64(n)})
	m.s.rep.LoadSeconds = m.P.Now()
}

// Work is one master's prepared workload: pull queues of jobs, one
// shared by every worker (the paper's FARM) or one per worker group
// (cache-affinity deals, per-method partitions). A Work without queues
// farms one empty queue.
type Work struct {
	Queues [][]rckskel.Job
	// QueueOf[w] is the queue of worker w, in placement order; nil gives
	// worker w queue w, or every worker the one queue there is.
	QueueOf []int
}

// FarmWork farms w on the chip's default team (the paper's FARM
// construct, its failure detection armed by Run's per-job deadline per
// job of a batch), routing every result through the chip's
// collection bookkeeping and then collect (may be nil).
// The report accumulates the farm's statistics across calls.
func (m *Master) FarmWork(w Work, collect func(rckskel.Result)) {
	s, c := m.s, m.c
	queues, queueOf := w.Queues, w.QueueOf
	switch {
	case len(queues) == 0:
		queues = [][]rckskel.Job{nil}
	case queueOf == nil && len(queues) > 1:
		queueOf = make([]int, len(s.place.WorkerLeads))
		for i := range queueOf {
			queueOf[i] = i
		}
	}
	deadline := s.deadline * float64(max(s.cfg.Batch, 1))
	st, ft := c.team.FARM(m.P, queues, queueOf, deadline, func(r rckskel.Result) {
		c.ledger.doneJobs++
		s.deliver(c, r, collect)
	})
	c.farms++
	for core, n := range st.JobsPerSlave {
		c.stats.JobsPerSlave[core] += n
	}
	c.stats.PollProbes += st.PollProbes
	c.stats.MakespanSeconds += st.MakespanSeconds
	c.faults.Add(ft)
}

// Terminate shuts down the chip's default team's slaves.
func (m *Master) Terminate() { m.c.team.Terminate(m.P) }

// Scatter, called by the root before it farms its own shard of a stage,
// sends every remote chip c its shard of the stage, work[c], over the
// fabric, in chip order. A shard costs ShardHeaderBytes plus a
// ShardJobHeaderBytes descriptor per pair and each distinct structure
// once, at the sizes PrepareJobs recorded. Its header says whether
// another follows: one does while PrepareJobs made jobs for the chip that
// no shard carried yet, and a chip sent its last is sent no more.
func (m *Master) Scatter(work []Work) {
	for _, c := range m.s.chips[1:] {
		if c.lastSent {
			continue
		}
		bytes := m.s.price(c, work[c.id])
		c.shardBytes += bytes
		c.lastSent = c.scattered >= c.ledger.jobs
		m.s.fabric.Send(m.P, 0, c.id, int(bytes), shard{work[c.id], !c.lastSent})
	}
}
