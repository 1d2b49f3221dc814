package rckskel

import (
	"sort"
	"testing"

	"rckalign/internal/costmodel"
	"rckalign/internal/metrics"
	"rckalign/internal/rcce"
	"rckalign/internal/scc"
	"rckalign/internal/sim"
)

// doubler is a handler that returns 2x the int payload, charging a fixed
// compute cost.
func doubler(cost uint64) Handler {
	return func(job Job) (any, costmodel.Counter, int) {
		v := job.Payload.(int)
		return 2 * v, costmodel.Counter{DPCells: cost}, 8
	}
}

func setup(slaves int, h Handler) (*sim.Engine, *Team) {
	e := sim.NewEngine()
	chip := scc.New(e, scc.DefaultConfig())
	comm := rcce.New(chip)
	ids := make([]int, slaves)
	for i := range ids {
		ids[i] = i + 1
	}
	t := NewTeam(comm, 0, ids)
	t.StartSlaves(h)
	return e, t
}

func intJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{ID: i, Payload: i, Bytes: 64}
	}
	return jobs
}

// farmAll runs the paper's plain FARM: one shared queue, nothing armed.
func farmAll(t *Team, p *sim.Process, jobs []Job, collect func(Result)) Stats {
	st, _ := t.FARM(p, [][]Job{jobs}, nil, 0, collect)
	return st
}

func runMaster(e *sim.Engine, t *Team, body func(p *sim.Process)) error {
	t.Comm.Chip().SpawnCore(t.Master, func(p *sim.Process) {
		body(p)
		t.Terminate(p)
	})
	return e.Run()
}

func TestFarmProcessesAllJobs(t *testing.T) {
	e, team := setup(5, doubler(1000))
	jobs := intJobs(37)
	got := map[int]int{}
	var stats Stats
	err := runMaster(e, team, func(p *sim.Process) {
		stats = farmAll(team, p, jobs, func(r Result) {
			got[r.JobID] = r.Payload.(int)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 37 {
		t.Fatalf("collected %d results, want 37", len(got))
	}
	for id, v := range got {
		if v != 2*id {
			t.Errorf("job %d result %d, want %d", id, v, 2*id)
		}
	}
	total := 0
	for _, n := range stats.JobsPerSlave {
		total += n
	}
	if total != 37 {
		t.Errorf("JobsPerSlave totals %d", total)
	}
	if stats.MakespanSeconds <= 0 || stats.PollProbes == 0 {
		t.Errorf("stats not recorded: %+v", stats)
	}
	// The mailbox peak is the team's own: a registry samples the depth
	// but leaves the peak as it is.
	e, metered := setup(5, doubler(1000))
	metered.SetMetrics(metrics.New())
	if err := runMaster(e, metered, func(p *sim.Process) { farmAll(metered, p, jobs, nil) }); err != nil {
		t.Fatal(err)
	}
	if team.MailboxPeak() < 1 || team.MailboxPeak() != metered.MailboxPeak() {
		t.Errorf("mailbox peak %d without a registry, %d with one", team.MailboxPeak(), metered.MailboxPeak())
	}
}

func TestFarmBalancesUniformJobs(t *testing.T) {
	e, team := setup(4, doubler(1_000_000))
	jobs := intJobs(40)
	var stats Stats
	err := runMaster(e, team, func(p *sim.Process) {
		stats = farmAll(team, p, jobs, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	var counts []int
	for _, n := range stats.JobsPerSlave {
		counts = append(counts, n)
	}
	sort.Ints(counts)
	if len(counts) != 4 {
		t.Fatalf("used %d slaves, want 4", len(counts))
	}
	if counts[0] < 8 || counts[3] > 12 {
		t.Errorf("uniform jobs badly balanced: %v", counts)
	}
}

func TestFarmSpeedupNearLinear(t *testing.T) {
	// The central claim of the paper: uniform-ish jobs on k slaves run
	// ~k times faster than on one slave.
	makespan := func(slaves int) float64 {
		e, team := setup(slaves, doubler(50_000_000)) // ~3 s/job on P54C
		var stats Stats
		if err := runMaster(e, team, func(p *sim.Process) {
			stats = farmAll(team, p, intJobs(60), nil)
		}); err != nil {
			t.Fatal(err)
		}
		return stats.MakespanSeconds
	}
	t1 := makespan(1)
	t6 := makespan(6)
	speedup := t1 / t6
	if speedup < 5.3 || speedup > 6.01 {
		t.Errorf("speedup with 6 slaves = %v, want near 6", speedup)
	}
}

func TestFarmFewerJobsThanSlaves(t *testing.T) {
	e, team := setup(10, doubler(100))
	collected := 0
	err := runMaster(e, team, func(p *sim.Process) {
		farmAll(team, p, intJobs(3), func(Result) { collected++ })
	})
	if err != nil {
		t.Fatal(err)
	}
	if collected != 3 {
		t.Errorf("collected %d, want 3", collected)
	}
}

func TestFarmNoJobs(t *testing.T) {
	e, team := setup(3, doubler(100))
	err := runMaster(e, team, func(p *sim.Process) {
		st := farmAll(team, p, nil, func(Result) { t.Error("unexpected result") })
		if st.PollProbes != 0 {
			t.Errorf("poll probes = %d for empty farm", st.PollProbes)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSEQOrdering(t *testing.T) {
	e, team := setup(3, doubler(1000))
	var order []int
	err := runMaster(e, team, func(p *sim.Process) {
		team.SEQ(p, intJobs(7), func(r Result) { order = append(order, r.JobID) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 7 {
		t.Fatalf("order = %v", order)
	}
	if !sort.IntsAreSorted(order) {
		t.Errorf("SEQ results out of order: %v", order)
	}
}

func TestPARCollect(t *testing.T) {
	e, team := setup(4, doubler(10_000))
	got := map[int]bool{}
	err := runMaster(e, team, func(p *sim.Process) {
		team.PAR(p, intJobs(4))
		st := team.COLLECT(p, 4, func(r Result) { got[r.JobID] = true })
		if st.MakespanSeconds <= 0 {
			t.Error("collect recorded no time")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Errorf("collected %v", got)
	}
}

func TestPAROverflowPanics(t *testing.T) {
	e, team := setup(2, doubler(10))
	err := runMaster(e, team, func(p *sim.Process) {
		defer func() {
			if recover() == nil {
				t.Error("PAR with too many jobs should panic")
			}
		}()
		team.PAR(p, intJobs(5))
	})
	// The panic is recovered inside the master; slaves still get
	// terminated, so Run should end. The first two sends may have
	// completed, leaving slaves mid-protocol: accept an engine error.
	_ = e
	_ = err
}

func TestNewTeamRejectsMasterAsSlave(t *testing.T) {
	e := sim.NewEngine()
	chip := scc.New(e, scc.DefaultConfig())
	comm := rcce.New(chip)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewTeam(comm, 0, []int{0, 1})
}

func TestSlaveComputeTimeCharged(t *testing.T) {
	// One slave, one expensive job: makespan must be at least the
	// compute time of the job on a P54C.
	e, team := setup(1, doubler(100_000_000))
	cpu := team.Comm.Chip().Config().CPU
	wantMin := cpu.Seconds(costmodel.Counter{DPCells: 100_000_000})
	var stats Stats
	err := runMaster(e, team, func(p *sim.Process) {
		stats = farmAll(team, p, intJobs(1), nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.MakespanSeconds < wantMin {
		t.Errorf("makespan %v < compute time %v", stats.MakespanSeconds, wantMin)
	}
	if stats.MakespanSeconds > wantMin*1.1 {
		t.Errorf("makespan %v too far above compute time %v (overhead should be small)", stats.MakespanSeconds, wantMin)
	}
}

func TestVariableJobsDynamicBalance(t *testing.T) {
	// Jobs with very different costs: dynamic FARM assignment must beat
	// a static split badly skewed. We just assert the makespan is close
	// to total/slaves, i.e. the long jobs don't all pile on one slave.
	e := sim.NewEngine()
	chip := scc.New(e, scc.DefaultConfig())
	comm := rcce.New(chip)
	team := NewTeam(comm, 0, []int{1, 2, 3, 4})
	var total float64
	cpu := chip.Config().CPU
	h := func(job Job) (any, costmodel.Counter, int) {
		c := costmodel.Counter{DPCells: uint64(job.Payload.(int))}
		return nil, c, 8
	}
	team.StartSlaves(h)
	jobs := make([]Job, 20)
	for i := range jobs {
		cost := 10_000_000 * (1 + i%5) // 10M..50M cells
		jobs[i] = Job{ID: i, Payload: cost, Bytes: 64}
		total += cpu.Seconds(costmodel.Counter{DPCells: uint64(cost)})
	}
	var stats Stats
	if err := runMaster(e, team, func(p *sim.Process) {
		stats = farmAll(team, p, jobs, nil)
	}); err != nil {
		t.Fatal(err)
	}
	ideal := total / 4
	if stats.MakespanSeconds > ideal*1.35 {
		t.Errorf("makespan %v too far above ideal %v", stats.MakespanSeconds, ideal)
	}
}

func TestFarmToleratesStragglerCore(t *testing.T) {
	// Failure-injection flavour: one slave's core is 10x slower (thermal
	// throttling / faulty tile). The dynamic farm must route most jobs
	// to healthy cores and still finish everything.
	e := sim.NewEngine()
	chip := scc.New(e, scc.DefaultConfig())
	comm := rcce.New(chip)
	team := NewTeam(comm, 0, []int{1, 2, 3, 4})
	straggler := 1
	h := func(job Job) (any, costmodel.Counter, int) {
		return nil, costmodel.Counter{DPCells: 10_000_000}, 8
	}
	// Model the slow core by inflating its per-job ops tenfold.
	slow := func(job Job) (any, costmodel.Counter, int) {
		return nil, costmodel.Counter{DPCells: 100_000_000}, 8
	}
	for i, core := range team.Slaves {
		chip.SpawnCore(core, func(p *sim.Process) {
			if core == straggler {
				team.slaveLoop(p, i, core, slow)
			} else {
				team.slaveLoop(p, i, core, h)
			}
		})
	}
	var stats Stats
	if err := runMaster(e, team, func(p *sim.Process) {
		stats = farmAll(team, p, intJobs(40), nil)
	}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range stats.JobsPerSlave {
		total += n
	}
	if total != 40 {
		t.Fatalf("jobs lost: %d", total)
	}
	if stats.JobsPerSlave[straggler] >= stats.JobsPerSlave[2] {
		t.Errorf("straggler got %d jobs vs healthy %d; dynamic farm should shed load",
			stats.JobsPerSlave[straggler], stats.JobsPerSlave[2])
	}
}

// TestFarmAllocationsPerJob: past its set-up, a 47-slave FARM costs the
// host no allocation per job — the job, its result and both messages
// travel without a heap object.
func TestFarmAllocationsPerJob(t *testing.T) {
	const n = 400
	jobs := make([]Job, 2*n)
	for i := range jobs {
		jobs[i] = Job{ID: i, Bytes: 64}
	}
	h := func(Job) (any, costmodel.Counter, int) { return nil, costmodel.Counter{DPCells: 1000}, 8 }
	allocs := func(jobs []Job) float64 {
		return testing.AllocsPerRun(3, func() {
			e, team := setup(47, h)
			if err := runMaster(e, team, func(p *sim.Process) { farmAll(team, p, jobs, nil) }); err != nil {
				t.Fatal(err)
			}
		})
	}
	if perJob := (allocs(jobs) - allocs(jobs[:n])) / n; perJob >= 0.1 {
		t.Errorf("%.3f allocations per job, want < 0.1", perJob)
	}
}
