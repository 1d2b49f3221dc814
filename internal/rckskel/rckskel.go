// Package rckskel reproduces the paper's algorithmic skeleton library of
// the same name: SEQ, PAR, COLLECT and FARM constructs that orchestrate
// jobs across SCC cores over the RCCE message-passing layer. The master
// process distributes application-defined jobs and gathers results by
// round-robin polling of the slaves, exactly as described in Section IV.
// A "job" is one application work unit (here: a pairwise protein
// structure comparison); a "task" is a collection of jobs plus the cores
// allowed to execute them.
//
// Polling model: the real library busy-loops over the slaves' MPB flags.
// Simulating every probe is infeasible (a multi-second job would need
// ~10^8 probe events), so the simulation is event-driven — a slave
// "rings" the master when its result flag goes up — and the master is
// charged the equivalent round-robin discovery cost per collection: on
// average half a sweep of remote flag reads before it reaches the ready
// slave. The master remains a serial resource: while it transfers one
// result, other ready slaves wait, exactly as with real polling.
//
// Fault model: the master is assumed reliable (as in the paper's farm)
// and observes failures only through time — a dispatched job whose
// result has not been collected by its deadline is presumed lost,
// whatever the cause (dead or stalled core, dropped job or result).
// Corrupted messages are detected by the wire checksums and cost a
// retry, not the slave's reputation. Sends to fail-stopped cores rely on
// the fault injector's wire model (the dead core's MPB never
// acknowledges, the message vanishes, the sender moves on). There is one
// protocol: without a deadline nothing is armed — no timer is ever
// scheduled, no job is ever presumed lost.
package rckskel

import (
	"cmp"
	"errors"
	"fmt"
	"math"

	"rckalign/internal/costmodel"
	"rckalign/internal/metrics"
	"rckalign/internal/rcce"
	"rckalign/internal/sim"
	"rckalign/internal/trace"
)

// ErrJobBytes reports a job whose modelled request wire size is not
// positive: it would silently corrupt the NoC transfer model (rcce
// clamps instead of diagnosing), so job builders and dispatch check it.
var ErrJobBytes = errors.New("rckskel: job request bytes must be positive")

// Job is one unit of work dispatched to a slave core.
type Job struct {
	ID      int // identifies the job in results
	Payload any // the application request (structure pair, etc.)
	Bytes   int // modelled wire size of the request message
	// SizeFor, when non-nil, overrides Bytes per slave at dispatch time
	// (the cached farm ships only the structures a slave's modelled cache
	// is missing). It is called exactly once per send, in deterministic
	// event order, so stateful size models (LRU caches) stay reproducible.
	SizeFor func(slave int) int
}

// ValidateJobs rejects jobs whose static wire size is not positive with
// ErrJobBytes (SizeFor jobs are checked per slave at dispatch instead).
func ValidateJobs(jobs []Job) error {
	for _, j := range jobs {
		if j.SizeFor == nil && j.Bytes < 1 {
			return fmt.Errorf("%w: job %d has %d bytes", ErrJobBytes, j.ID, j.Bytes)
		}
	}
	return nil
}

// Result is a slave's answer to one job.
type Result struct {
	JobID   int
	Slave   int
	Payload any // the application result
	Bytes   int // modelled wire size of the result message
}

// Handler executes a job's application work on a slave, returning the result
// payload, the operation counts to charge its core, and the result's wire size.
type Handler func(job Job) (payload any, ops costmodel.Counter, resultBytes int)

// terminate is the shutdown sentinel the master sends to each slave.
type terminate struct{}

// A slave is idle (free and trusted), inflight (its job is within its
// deadline) or suspect (the deadline or the result transfer expired: no
// new work until it rings again).
const (
	idle uint8 = iota
	inflight
	suspect
)

// slaveState is the master's view of one slave, kept across the farms
// of a team so a straggler of one farm is not trusted by the next.
type slaveState struct {
	state uint8
	// blacklisted slaves get no further jobs, whatever their state.
	blacklisted bool
	fails       int // consecutive failures
	// job indexes, in the slave's queue, the job last handed to it (-1:
	// an earlier farm's); deadline is when it is presumed lost.
	job      int
	deadline float64
	// ringAt is when the slave last raised its ready flag (at most one
	// ring is outstanding per slave): the start of the result's wait in
	// the master's "mailbox".
	ringAt float64
	name   string // core name, for trace tracks and metric labels
	// Per-slave aggregates, nil unless SetMetrics installed a registry.
	jobs, compute, wait *metrics.Counter
}

// Team manages a master core and a set of slave cores on one chip.
type Team struct {
	Comm   *rcce.Comm
	Master int
	Slaves []int

	// DiscoveryCostScale scales the master's round-robin polling cost
	// charged per collected result: 1 models the paper's busy polling,
	// 0 an ideal event-driven notification (the polling ablation).
	DiscoveryCostScale float64
	// Trace, when non-nil, records per-core activity intervals ("compute"
	// on slaves, "collect" on the master) for utilization reports.
	Trace *trace.Recorder

	// ring carries "result ready" flags (slave positions) to the master:
	// an async queue, so a flag survives a busy master or a slave dying
	// right after raising it. stop broadcasts shutdown to the slave loops.
	ring *sim.Queue
	stop *sim.Latch
	// resultTimeout bounds a result transfer after its ring and, after
	// stop, a slave's wait for the sentinel; +Inf until a FARM arms one.
	resultTimeout float64

	slaves     []slaveState
	nInflight  int
	masterName string
	halfSweep  float64 // half a polling sweep over the slave ring

	// Observability handles, nil unless SetMetrics installed a registry.
	hDispatchWait, hInputXfer, hCompute, hResultXfer, hCollectWait *metrics.Histogram

	cJobsDone, cMasterCollect *metrics.Counter
	sMailbox                  *metrics.Series
	gMailboxPeak              *metrics.Gauge
	mailboxDepth              int
}

// SetMetrics installs a metrics registry (nil disables it): the team
// then decomposes every job's latency into dispatch-wait, input-transfer,
// compute, result-transfer and collect-wait histograms
// ("farm.job.*_seconds"), keeps per-slave aggregates ("farm.slave.*"),
// and samples the master's mailbox depth — the slaves with a result
// ready that the master has not yet started collecting — as a time
// series with its peak as a gauge. Recording is passive (no simulated
// time, no events) whatever is armed. labels are appended to every fixed
// key (a multi-chip system scopes each chip's team with "chip", "cN");
// per-slave keys are distinct through the chip's core name prefix.
func (t *Team) SetMetrics(reg *metrics.Registry, labels ...string) {
	t.hDispatchWait = reg.Histogram("farm.job.dispatch_wait_seconds", metrics.TimeBuckets, labels...)
	t.hInputXfer = reg.Histogram("farm.job.input_xfer_seconds", metrics.TimeBuckets, labels...)
	t.hCompute = reg.Histogram("farm.job.compute_seconds", metrics.TimeBuckets, labels...)
	t.hResultXfer = reg.Histogram("farm.job.result_xfer_seconds", metrics.TimeBuckets, labels...)
	t.hCollectWait = reg.Histogram("farm.job.collect_wait_seconds", metrics.TimeBuckets, labels...)
	t.cJobsDone = reg.Counter("farm.jobs.completed", labels...)
	t.cMasterCollect = reg.Counter("farm.master.collect_seconds", labels...)
	t.sMailbox = reg.Series("farm.master.mailbox_depth", labels...)
	t.gMailboxPeak = reg.Gauge("farm.master.mailbox_peak", labels...)
	for i := range t.slaves {
		s := &t.slaves[i]
		s.jobs = reg.Counter("farm.slave.jobs", "slave", s.name)
		s.compute = reg.Counter("farm.slave.compute_seconds", "slave", s.name)
		s.wait = reg.Counter("farm.slave.dispatch_wait_seconds", "slave", s.name)
	}
}

// NewTeam builds a team with the master on masterCore and the given
// slaves. Slave cores must be distinct from the master.
func NewTeam(comm *rcce.Comm, masterCore int, slaves []int) *Team {
	t := &Team{
		Comm:               comm,
		Master:             masterCore,
		Slaves:             append([]int(nil), slaves...),
		DiscoveryCostScale: 1,
		ring:               sim.NewQueue("rckskel.ring"),
		stop:               sim.NewLatch("rckskel.stop"),
		resultTimeout:      math.Inf(1),
		slaves:             make([]slaveState, len(slaves)),
		masterName:         comm.Chip().CoreName(masterCore),
	}
	for i, s := range slaves {
		if s == masterCore {
			panic(fmt.Sprintf("rckskel: core %d cannot be both master and slave", s))
		}
		t.slaves[i] = slaveState{job: -1, name: comm.Chip().CoreName(s)}
		t.halfSweep += comm.PollCost(masterCore, s) / 2
	}
	return t
}

// StartSlaves spawns the slave loop on every slave core: block for a job
// from the master, execute it (charging its compute time to the core),
// flag and return the result, repeat until terminated.
func (t *Team) StartSlaves(h Handler) { t.StartSlavesWith(func(int) Handler { return h }) }

// StartSlavesWith is StartSlaves with a per-core handler (the paper's
// MC-PSC extension: different slaves run different comparison methods).
func (t *Team) StartSlavesWith(h func(core int) Handler) {
	for i, core := range t.Slaves {
		t.Comm.Chip().SpawnCore(core, func(p *sim.Process) {
			t.slaveLoop(p, i, core, h(core))
		})
	}
}

// slaveLoop serves jobs on the slave at position i. Corrupted job
// requests are discarded (the master's deadline re-sends them) and a
// result finished after the stop flag went up is not sent (the master no
// longer collects). Once stop is up, the wait for the shutdown sentinel
// is bounded — a faulty link dropping it must not park this core forever.
func (t *Team) slaveLoop(p *sim.Process, i, core int, h Handler) {
	s := &t.slaves[i]
	for {
		m, tm, ok := t.Comm.RecvOrStop(p, t.Master, core, t.stop)
		if _, done := m.Payload.(terminate); done || !ok {
			return
		}
		if m.Corrupt {
			continue
		}
		t.hDispatchWait.Observe(tm.WaitSeconds)
		t.hInputXfer.Observe(tm.XferSeconds)
		s.wait.Add(tm.WaitSeconds)
		job := m.Payload.(Job)
		payload, ops, resultBytes := h(job)
		computeStart := p.Now()
		t.Comm.Chip().Compute(p, ops)
		computeEnd := p.Now()
		if t.Trace != nil {
			t.Trace.Add(s.name, computeStart, computeEnd, "compute")
		}
		t.hCompute.Observe(computeEnd - computeStart)
		s.jobs.Inc()
		s.compute.Add(computeEnd - computeStart)
		if t.stop.IsSet() {
			continue
		}
		// Raise the ready flag (the master's poll finds it), post the result.
		s.ringAt = computeEnd
		if t.sMailbox != nil {
			t.mailboxDepth++
			t.sMailbox.Append(computeEnd, float64(t.mailboxDepth))
			t.gMailboxPeak.Max(float64(t.mailboxDepth))
		}
		t.ring.Put(i)
		resultBytes = max(resultBytes, 1)
		t.Comm.Send(p, core, t.Master, resultBytes, Result{
			JobID: job.ID, Slave: core, Payload: payload, Bytes: resultBytes,
		})
	}
}

// Terminate shuts the slave loops down: raise the stop flag, then per
// slave drain any result send already in flight (so no straggler is
// left blocked mid-handshake) and hand the shutdown sentinel to every
// slave waiting for it. A slave that is not — fail-stopped, or a
// straggler still computing a job the farm gave up on — gets none: the
// master never blocks on a core that may be dying, and the straggler
// finds the stop flag up when it finishes, discards its result and
// leaves once the sentinel wait times out. Call from the master last.
func (t *Team) Terminate(p *sim.Process) {
	t.stop.Grace = t.resultTimeout
	t.stop.Set()
	for _, core := range t.Slaves {
		for ok := true; ok && t.Comm.Probe(core, t.Master); {
			_, _, ok = t.Comm.RecvTimeout(p, core, t.Master, t.resultTimeout)
		}
		if t.Comm.Listening(t.Master, core) {
			t.Comm.Send(p, t.Master, core, 1, terminate{})
		}
	}
	t.ring.Drain()
}

// sendJob dispatches one job request from the master to a slave. Every
// dispatch path (SEQ, PAR, FARM) funnels through here, so the per-slave
// size model and its validation apply uniformly; a non-positive resolved
// size is a modelling bug and fails loudly instead of being clamped.
func (t *Team) sendJob(p *sim.Process, slave int, job Job) {
	bytes := job.Bytes
	if job.SizeFor != nil {
		bytes = job.SizeFor(slave)
	}
	if bytes < 1 {
		panic(fmt.Errorf("%w: job %d resolved to %d bytes for slave %d", ErrJobBytes, job.ID, bytes, slave))
	}
	t.Comm.Send(p, t.Master, slave, bytes, job)
}

// Stats reports what a FARM or COLLECT execution did.
type Stats struct {
	JobsPerSlave map[int]int // jobs executed, by core
	// PollProbes estimates the master's flag probes: half a sweep per collection.
	PollProbes      int
	MakespanSeconds float64 // simulated duration, first send to last collect
}

// collectFrom is the one collection step: having noticed slave i's ready
// flag, the master pays the polling discovery cost — on average half a
// sweep over the slave ring, ending at the ready slave — and receives the
// result, giving up (ok=false) after timeout seconds.
func (t *Team) collectFrom(p *sim.Process, i int, timeout float64, st *Stats) (rcce.Message, bool) {
	slave := t.Slaves[i]
	collectStart := p.Now()
	if t.sMailbox != nil {
		t.mailboxDepth--
		t.sMailbox.Append(collectStart, float64(t.mailboxDepth))
	}
	t.hCollectWait.Observe(collectStart - t.slaves[i].ringAt)
	p.Wait(t.DiscoveryCostScale * (t.halfSweep + t.Comm.PollCost(t.Master, slave)))
	st.PollProbes += len(t.Slaves)/2 + 1
	m, tm, ok := t.Comm.RecvTimeout(p, slave, t.Master, timeout)
	if t.Trace != nil {
		t.Trace.Add(t.masterName, collectStart, p.Now(), "collect")
	}
	t.cMasterCollect.Add(p.Now() - collectStart)
	if ok {
		t.hResultXfer.Observe(tm.XferSeconds)
	}
	return m, ok
}

// gather collects n results one by one, calling before(k), when set,
// ahead of the k-th: the fault-oblivious loop under SEQ and COLLECT.
func (t *Team) gather(p *sim.Process, n int, before func(k int), collect func(Result)) Stats {
	st := Stats{JobsPerSlave: map[int]int{}}
	start := p.Now()
	for k := 0; k < n; k++ {
		if before != nil {
			before(k)
		}
		m, _ := t.collectFrom(p, t.ring.Get(p).(int), math.Inf(1), &st)
		t.cJobsDone.Inc()
		res := m.Payload.(Result)
		st.JobsPerSlave[res.Slave]++
		if collect != nil {
			collect(res)
		}
	}
	st.MakespanSeconds = p.Now() - start
	return st
}

// SEQ runs jobs one at a time on the cycle of the team's slaves: job k
// goes to slave k mod len(Slaves), and the master waits for each result
// before issuing the next (the paper's task sequencing construct).
func (t *Team) SEQ(p *sim.Process, jobs []Job, collect func(Result)) Stats {
	return t.gather(p, len(jobs), func(k int) { t.sendJob(p, t.Slaves[k%len(t.Slaves)], jobs[k]) }, collect)
}

// PAR assigns jobs[k] to slave k (at most one job per slave) and returns
// as soon as all jobs have been handed over, without waiting for
// completion (the paper's task mapping construct); COLLECT gathers.
func (t *Team) PAR(p *sim.Process, jobs []Job) {
	if len(jobs) > len(t.Slaves) {
		panic(fmt.Sprintf("rckskel: PAR got %d jobs for %d slaves", len(jobs), len(t.Slaves)))
	}
	for k, job := range jobs {
		t.sendJob(p, t.Slaves[k], job)
	}
}

// COLLECT polls the team's slaves until `expect` results have been
// gathered (the paper's task collection construct).
func (t *Team) COLLECT(p *sim.Process, expect int, collect func(Result)) Stats {
	return t.gather(p, expect, nil, collect)
}

// FTConfig arms FARM's failure detection. The zero value arms nothing:
// no deadline, no timer, jobs are never presumed lost.
type FTConfig struct {
	// JobDeadlineSeconds is how long the master waits after handing a job
	// to a slave before presuming it lost and re-dispatching (0 = never).
	JobDeadlineSeconds float64
	// ResultTimeoutSeconds bounds the result transfer after a slave
	// rings (covers cores dying mid-transfer). 0 = JobDeadlineSeconds.
	ResultTimeoutSeconds float64
	// MaxFailures blacklists a slave after this many consecutive
	// failures (default 3). Blacklisted slaves get no further jobs, but
	// a late result from one is still accepted.
	MaxFailures int
	// MaxAttempts gives up on a job (counted as lost) after this many
	// dispatches. 0 = retry for as long as healthy slaves remain.
	MaxAttempts int
}

// FTStats reports what FARM's failure detection and recovery did; all
// zero when nothing failed.
type FTStats struct {
	Timeouts        int // deadline expiries and result-transfer timeouts
	CorruptDetected int // results discarded for checksum mismatch
	// Retries counts re-dispatches of jobs already handed to some slave;
	// Reassigned those of them that moved to a different slave.
	Retries, Reassigned int
	DuplicatesDropped   int // late results for jobs already completed
	// LostJobs counts jobs never completed (degraded termination or
	// MaxAttempts exhausted, minus late redemptions).
	LostJobs    int
	Blacklisted []int // slaves taken out of rotation, in order
}

// jobState tracks one job of a running FARM.
type jobState struct {
	attempts   int
	last       int // position + 1 of the slave it was last handed to (0 = none)
	done, lost bool
}

// queue is one FARM job queue with its dispatch cursor: never-dispatched
// jobs go out first, in order, then presumed-lost ones, oldest first.
type queue struct {
	jobs  []Job
	st    []jobState
	next  int
	retry []int
}

func (q *queue) pop() (j int, ok bool) {
	if q.next < len(q.jobs) {
		j, q.next = q.next, q.next+1
	} else if len(q.retry) > 0 {
		j, q.retry = q.retry[0], q.retry[1:]
	} else {
		return 0, false
	}
	return j, true
}

// farm is the state of one FARM execution.
type farm struct {
	t        *Team
	p        *sim.Process
	cfg      FTConfig
	collect  func(Result)
	queues   []queue
	queueOf  []int
	deadline float64 // how long a dispatched job may stay out (+Inf: forever)
	// rescan is set when a job went back to its queue: some idle slave
	// other than the one just collected may be able to take it.
	rescan           bool
	total, completed int
	st               Stats
	ft               FTStats
}

// FARM is the paper's master-slaves construct: prime every slave with a
// job, then poll; whenever a slave returns a result, hand it the next
// job, until all jobs are done. The job source is pull-based per slave:
// the slave at position i of Slaves draws from queues[queueOf[i]] (nil =
// all from queues[0], the paper's single shared queue; several queues
// partition the farm: one per PSC method, one per cache-affinity worker).
//
// cfg arms failure detection: jobs past their deadline are presumed
// lost and go back to the queue they came from (for another slave of
// that queue, when one is free), slaves that keep failing are
// blacklisted, duplicate and corrupt results are discarded, and the farm
// terminates — degraded, with jobs marked lost — once the queues that
// still hold work have no healthy slave left. Slave health persists
// across a team's farms. Call from the master; slaves must be running.
func (t *Team) FARM(p *sim.Process, queues [][]Job, queueOf []int, cfg FTConfig, collect func(Result)) (Stats, FTStats) {
	cfg.MaxFailures = cmp.Or(max(cfg.MaxFailures, 0), 3)
	f := &farm{t: t, p: p, cfg: cfg, collect: collect, queueOf: queueOf, rescan: true,
		queues: make([]queue, len(queues)), st: Stats{JobsPerSlave: map[int]int{}},
		deadline: cmp.Or(cfg.JobDeadlineSeconds, math.Inf(1))}
	t.resultTimeout = cmp.Or(cfg.ResultTimeoutSeconds, f.deadline)
	if queueOf == nil {
		f.queueOf = make([]int, len(t.Slaves))
	}
	for q, jobs := range queues {
		f.queues[q] = queue{jobs: jobs, st: make([]jobState, len(jobs))}
		f.total += len(jobs)
	}
	for i := range t.slaves {
		t.slaves[i].job = -1
	}
	start := p.Now()
	for f.completed+f.ft.LostJobs < f.total {
		if f.rescan {
			// Hand pending jobs to free, trusted slaves in slave-ring order
			// — with every slave idle this primes them with jobs 0..n-1.
			f.rescan = false
			for i := range t.slaves {
				f.dispatch(i)
			}
			continue
		}
		// Wait for a ring until the nearest deadline of a job in flight;
		// with none in flight, give suspect slaves one more deadline to
		// redeem their jobs. With nothing armed there is nothing to scan.
		wait, waiting := math.Inf(1), t.nInflight > 0
		for i := 0; i < len(t.slaves) && (cfg.JobDeadlineSeconds > 0 || !waiting); i++ {
			switch s := &t.slaves[i]; {
			case s.state == inflight:
				wait = min(wait, s.deadline-p.Now())
			case s.state == suspect && t.nInflight == 0:
				wait, waiting = f.deadline, true
			}
		}
		if !waiting {
			// Nothing running and nobody left who could ring: the queues
			// that still hold work have no healthy slave.
			f.writeOff()
		} else if wait <= 0 {
			f.expireDeadlines()
		} else if i, ok := t.ring.GetTimeout(p, wait); ok {
			f.handleRing(i.(int))
		} else if t.nInflight > 0 {
			f.expireDeadlines()
		} else {
			f.writeOff()
		}
	}
	f.st.MakespanSeconds = p.Now() - start
	return f.st, f.ft
}

func (f *farm) queueFor(i int) *queue { return &f.queues[f.queueOf[i]] }

// dispatch hands slave i the next job of its queue, if it is free and
// trusted and the queue has one.
func (f *farm) dispatch(i int) {
	s, q := &f.t.slaves[i], f.queueFor(i)
	if s.state != idle || s.blacklisted {
		return
	}
	for j, ok := q.pop(); ok; j, ok = q.pop() {
		js := &q.st[j]
		if js.done || js.lost {
			continue
		}
		if f.cfg.MaxAttempts > 0 && js.attempts >= f.cfg.MaxAttempts {
			js.lost = true
			f.ft.LostJobs++
			continue
		}
		js.attempts++
		if js.last > 0 {
			f.ft.Retries++
			if js.last != i+1 {
				f.ft.Reassigned++
			}
		}
		js.last = i + 1
		f.t.sendJob(f.p, f.t.Slaves[i], q.jobs[j])
		s.state, s.job, s.deadline = inflight, j, f.p.Now()+f.deadline
		f.t.nInflight++
		return
	}
}

// requeue returns job j of slave i to the queue it came from.
func (f *farm) requeue(i, j int) {
	if q := f.queueFor(i); j >= 0 && !q.st[j].done && !q.st[j].lost {
		q.retry = append(q.retry, j)
		f.rescan = true
	}
}

// fail charges slave i one failure and stops trusting it until it rings.
func (f *farm) fail(i int) {
	s := &f.t.slaves[i]
	f.ft.Timeouts++
	s.fails++
	if s.fails >= f.cfg.MaxFailures && !s.blacklisted {
		s.blacklisted = true
		f.ft.Blacklisted = append(f.ft.Blacklisted, f.t.Slaves[i])
	}
	s.state = suspect
}

// handleRing collects from slave i, which raised its ready flag.
func (f *farm) handleRing(i int) {
	t, s := f.t, &f.t.slaves[i]
	m, ok := t.collectFrom(f.p, i, t.resultTimeout, &f.st)
	pending := -1 // the job to re-dispatch should this collection fail
	if s.state == inflight {
		t.nInflight--
		pending = s.job
	}
	if !ok {
		// It rang, but the result never arrived (died or stalled mid-transfer).
		f.fail(i)
		f.requeue(i, pending)
		return
	}
	s.state, s.fails = idle, 0
	if m.Corrupt {
		// The wire mangled the result: retry without penalising the slave.
		f.ft.CorruptDetected++
		f.requeue(i, pending)
	} else if q, res := f.queueFor(i), m.Payload.(Result); s.job >= 0 && q.jobs[s.job].ID == res.JobID {
		if js := &q.st[s.job]; js.done {
			f.ft.DuplicatesDropped++
		} else {
			if js.lost {
				// A job written off as lost came back after all.
				f.ft.LostJobs--
			}
			js.done, js.lost = true, false
			f.completed++
			t.cJobsDone.Inc()
			f.st.JobsPerSlave[res.Slave]++
			if f.collect != nil {
				f.collect(res)
			}
		}
	}
	if !f.rescan {
		f.dispatch(i)
	}
}

// expireDeadlines presumes lost every in-flight job past its deadline,
// in slave-ring order for determinism.
func (f *farm) expireDeadlines() {
	for i := range f.t.slaves {
		if s := &f.t.slaves[i]; s.state == inflight && s.deadline <= f.p.Now() {
			f.t.nInflight--
			f.fail(i)
			f.requeue(i, s.job)
		}
	}
}

// writeOff marks every job still queued as lost.
func (f *farm) writeOff() {
	for qi := range f.queues {
		q := &f.queues[qi]
		for j, ok := q.pop(); ok; j, ok = q.pop() {
			if js := &q.st[j]; !js.done && !js.lost {
				js.lost = true
				f.ft.LostJobs++
			}
		}
	}
}
