package farm_test

import (
	"errors"
	"testing"

	"rckalign/internal/costmodel"
	"rckalign/internal/farm"
	"rckalign/internal/fault"
	"rckalign/internal/rckskel"
	"rckalign/internal/scc"
	"rckalign/internal/sched"
)

func TestPlaceTypedErrors(t *testing.T) {
	chip := scc.DefaultConfig() // 48 cores
	cases := []struct {
		name   string
		cfg    farm.Config
		slaves int
		want   error
	}{
		{"no chip", farm.Config{}, 4, farm.ErrSlaveCount},
		{"zero slaves", farm.Config{Chip: chip}, 0, farm.ErrSlaveCount},
		{"negative slaves", farm.Config{Chip: chip}, -3, farm.ErrSlaveCount},
		{"too many slaves", farm.Config{Chip: chip}, 48, farm.ErrSlaveCount},
		{"incomplete worker", farm.Config{Chip: chip, ThreadsPerWorker: 2}, 1, farm.ErrWorkerGrouping},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := farm.New(tc.cfg, tc.slaves); !errors.Is(err, tc.want) {
				t.Errorf("New error = %v, want errors.Is %v", err, tc.want)
			}
		})
	}
	// Every core but the master's may be a slave.
	if _, err := farm.New(farm.Config{Chip: chip}, 47); err != nil {
		t.Errorf("47 slaves rejected: %v", err)
	}
}

// TestValidateJobs: PrepareJobs is where job sizes are checked. Zero or
// negative request sizes would silently corrupt the NoC transfer model;
// they are rejected with the rckskel typed error.
func TestValidateJobs(t *testing.T) {
	s, err := farm.New(farm.Config{Chip: scc.DefaultConfig()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	pairs := []sched.Pair{{I: 0, J: 1}, {I: 0, J: 2}}
	if _, err := s.PrepareJobs(0, pairs, 0, []int{32, 32, 32}); err != nil {
		t.Errorf("sized jobs rejected: %v", err)
	}
	for _, size := range []int{0, -3} {
		if _, err := s.PrepareJobs(0, pairs, 0, []int{size, size, size}); !errors.Is(err, rckskel.ErrJobBytes) {
			t.Errorf("%d-byte structures: err = %v, want ErrJobBytes", size, err)
		}
	}
	// One bad size anywhere in the list fails the whole list.
	if _, err := s.PrepareJobs(0, pairs, 0, []int{1, 32, -1}); !errors.Is(err, rckskel.ErrJobBytes) {
		t.Errorf("last pair 0 bytes: err = %v, want ErrJobBytes", err)
	}
}

func TestNewRejectsBadFaultPlan(t *testing.T) {
	chip := scc.DefaultConfig()
	for name, plan := range map[string]*fault.Plan{
		"kill master":       {Kills: []fault.CoreFailure{{Core: 0, At: 1}}},
		"kill out of range": {Kills: []fault.CoreFailure{{Core: 99, At: 1}}},
		"bad probability":   {Links: []fault.LinkFault{{Src: 1, Dst: 2, DropProb: 2}}},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := farm.New(farm.Config{Chip: chip, Faults: plan}, 4); !errors.Is(err, farm.ErrFaultPlan) {
				t.Errorf("New error = %v, want errors.Is ErrFaultPlan", err)
			}
		})
	}
}

// TestPartitionedFarmRecoversInsideItsPartition: two queues x two slaves
// (Work.QueueOf), one slave of the first partition killed mid-run. Its
// job returns to the queue it came from and is redone by the
// partition's surviving slave — never by the other partition, whose
// slaves may not even run the same method.
func TestPartitionedFarmRecoversInsideItsPartition(t *testing.T) {
	js := scc.DefaultConfig().CPU.Seconds(costmodel.Counter{DPCells: 200000})
	s, err := farm.New(farm.Config{
		Chip:   scc.DefaultConfig(),
		Faults: &fault.Plan{Kills: []fault.CoreFailure{{Core: 1, At: 1.5 * js}}},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.StartSlaves(countJobs)
	all := intJobs(t, s, 24)
	queueOf := []int{0, 0, 1, 1} // by worker; worker w is slave core w+1
	ranOn := map[int]int{}
	rep, err := s.Run(func(m *farm.Master) {
		m.FarmWork(farm.Work{Queues: [][]rckskel.Job{all[:12], all[12:]}, QueueOf: queueOf}, func(r rckskel.Result) {
			if _, dup := ranOn[r.JobID]; dup {
				t.Errorf("job %d collected twice", r.JobID)
			}
			ranOn[r.JobID] = r.Slave
		})
		m.Terminate()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranOn) != 24 || rep.Faults.LostJobs != 0 {
		t.Fatalf("collected %d of 24 jobs, lost %d", len(ranOn), rep.Faults.LostJobs)
	}
	for id, slave := range ranOn {
		if want := id / 12; queueOf[slave-1] != want {
			t.Errorf("job %d of queue %d ran on slave %d of queue %d", id, want, slave, queueOf[slave-1])
		}
	}
	if rep.Faults.Retries == 0 || rep.Faults.Reassigned == 0 {
		t.Errorf("kill left no recovery trace: %+v", rep.Faults)
	}
}

// TestOrphanedQueueIsLost: both slaves of one partition die, so its
// remaining jobs have no healthy slave left and are written off — the
// other partition still completes, and no job crosses over.
func TestOrphanedQueueIsLost(t *testing.T) {
	js := scc.DefaultConfig().CPU.Seconds(costmodel.Counter{DPCells: 200000})
	s, err := farm.New(farm.Config{
		Chip:   scc.DefaultConfig(),
		Faults: &fault.Plan{Kills: []fault.CoreFailure{{Core: 1, At: 1.5 * js}, {Core: 2, At: 1.5 * js}}},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.StartSlaves(countJobs)
	all := intJobs(t, s, 24)
	got := map[int]bool{}
	rep, err := s.Run(func(m *farm.Master) {
		m.FarmWork(farm.Work{Queues: [][]rckskel.Job{all[:12], all[12:]}, QueueOf: []int{0, 0, 1, 1}},
			func(r rckskel.Result) { got[r.JobID] = true })
		m.Terminate()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Collected+rep.Faults.LostJobs != 24 || rep.Faults.LostJobs == 0 {
		t.Errorf("collected %d + lost %d, want 24 with some lost", rep.Collected, rep.Faults.LostJobs)
	}
	for id := 12; id < 24; id++ {
		if !got[id] {
			t.Errorf("job %d of the healthy partition was not collected", id)
		}
	}
	for _, n := range []int{3, 4} {
		if rep.FarmStats.JobsPerSlave[n] != 6 {
			t.Errorf("slave %d ran %d jobs, want its partition's even share of 6", n, rep.FarmStats.JobsPerSlave[n])
		}
	}
}

// countJobs is a trivial handler for session-level FT tests.
func countJobs(job rckskel.Job) (any, costmodel.Counter, int) {
	return job.ID, costmodel.Counter{DPCells: 200000}, 8
}

// intJobs prepares n 64-byte jobs numbered 0..n-1 on chip 0 of s.
func intJobs(t *testing.T, s *farm.Session, n int) []rckskel.Job {
	t.Helper()
	jobs, err := s.PrepareJobs(0, make([]sched.Pair, n), 0, []int{32})
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func TestSessionFaultTolerantKillRun(t *testing.T) {
	js := scc.DefaultConfig().CPU.Seconds(costmodel.Counter{DPCells: 200000})
	plan := &fault.Plan{Kills: []fault.CoreFailure{{Core: 2, At: 1.5 * js}}}
	s, err := farm.New(farm.Config{
		Chip:   scc.DefaultConfig(),
		Faults: plan,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.StartSlaves(countJobs)
	jobs, got := intJobs(t, s, 24), map[int]int{}
	rep, err := s.Run(func(m *farm.Master) {
		m.FarmWork(farm.Work{Queues: [][]rckskel.Job{jobs}}, func(r rckskel.Result) { got[r.JobID]++ })
		m.Terminate()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 24 {
		t.Fatalf("collected %d of 24 jobs", len(got))
	}
	for id, n := range got {
		if n != 1 {
			t.Errorf("job %d collected %d times", id, n)
		}
	}
	if rep.Faults == nil {
		t.Fatal("fault-tolerant run produced no Faults block")
	}
	if rep.Faults.Injected.CoresKilled != 1 || len(rep.Faults.DeadCores) != 1 {
		t.Errorf("injection stats = %+v", rep.Faults)
	}
	if rep.Faults.Timeouts == 0 || rep.Faults.Retries == 0 {
		t.Errorf("recovery left no trace: %+v", rep.Faults)
	}
	if rep.Faults.LostJobs != 0 {
		t.Errorf("lost %d jobs with healthy slaves remaining", rep.Faults.LostJobs)
	}
	if rep.Collected != 24 {
		t.Errorf("report Collected = %d", rep.Collected)
	}
}

func TestSessionClassicRunHasNoFaultsBlock(t *testing.T) {
	s, err := farm.New(farm.Config{Chip: scc.DefaultConfig()}, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.StartSlaves(countJobs)
	jobs := intJobs(t, s, 6)
	rep, err := s.Run(func(m *farm.Master) {
		m.FarmWork(farm.Work{Queues: [][]rckskel.Job{jobs}}, nil)
		m.Terminate()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults != nil {
		t.Errorf("classic run grew a Faults block: %+v", rep.Faults)
	}
}
