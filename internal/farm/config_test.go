package farm_test

import (
	"errors"
	"testing"

	"rckalign/internal/costmodel"
	"rckalign/internal/farm"
	"rckalign/internal/fault"
	"rckalign/internal/rckskel"
	"rckalign/internal/scc"
)

func TestPlaceTypedErrors(t *testing.T) {
	chip := scc.DefaultConfig() // 48 cores
	cases := []struct {
		name string
		cfg  farm.Config
		want error
	}{
		{"no chip", farm.Config{Slaves: 4}, farm.ErrMasterCore},
		{"master below range", farm.Config{Chip: chip, MasterCore: -2, Slaves: 4}, farm.ErrMasterCore},
		{"master above range", farm.Config{Chip: chip, MasterCore: 48, Slaves: 4}, farm.ErrMasterCore},
		{"zero slaves", farm.Config{Chip: chip, Slaves: 0}, farm.ErrSlaveCount},
		{"negative slaves", farm.Config{Chip: chip, Slaves: -3}, farm.ErrSlaveCount},
		{"too many slaves", farm.Config{Chip: chip, Slaves: 48}, farm.ErrSlaveCount},
		{"too many for host master", farm.Config{Chip: chip, MasterCore: farm.HostMaster, Slaves: 49}, farm.ErrSlaveCount},
		{"incomplete worker", farm.Config{Chip: chip, Slaves: 1, ThreadsPerWorker: 2}, farm.ErrWorkerGrouping},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := farm.Place(tc.cfg); !errors.Is(err, tc.want) {
				t.Errorf("Place error = %v, want errors.Is %v", err, tc.want)
			}
			if _, err := farm.NewSession(tc.cfg); !errors.Is(err, tc.want) {
				t.Errorf("NewSession error = %v, want errors.Is %v", err, tc.want)
			}
		})
	}
	// Host master allows exactly all cores as slaves.
	if _, err := farm.Place(farm.Config{Chip: chip, MasterCore: farm.HostMaster, Slaves: 48}); err != nil {
		t.Errorf("48 slaves under a host master rejected: %v", err)
	}
}

func TestValidateJobs(t *testing.T) {
	if err := farm.ValidateJobs(nil); !errors.Is(err, farm.ErrNoJobs) {
		t.Errorf("nil jobs: %v", err)
	}
	if err := farm.ValidateJobs([]rckskel.Job{}); !errors.Is(err, farm.ErrNoJobs) {
		t.Errorf("empty jobs: %v", err)
	}
	if err := farm.ValidateJobs([]rckskel.Job{{ID: 1, Bytes: 64}}); err != nil {
		t.Errorf("one sized job rejected: %v", err)
	}
	// Zero or negative request sizes would silently corrupt the NoC
	// transfer model; they are rejected with the rckskel typed error.
	if err := farm.ValidateJobs([]rckskel.Job{{ID: 1}}); !errors.Is(err, rckskel.ErrJobBytes) {
		t.Errorf("zero-byte job: err = %v, want ErrJobBytes", err)
	}
	if err := farm.ValidateJobs([]rckskel.Job{{ID: 1, Bytes: 64}, {ID: 2, Bytes: -3}}); !errors.Is(err, rckskel.ErrJobBytes) {
		t.Errorf("negative-byte job: err = %v, want ErrJobBytes", err)
	}
	// A SizeFor job resolves its size per slave at dispatch; its static
	// Bytes is not validated here.
	dyn := []rckskel.Job{{ID: 3, SizeFor: func(int) int { return 8 }}}
	if err := farm.ValidateJobs(dyn); err != nil {
		t.Errorf("SizeFor job rejected: %v", err)
	}
}

func TestNewSessionRejectsBadFaultPlan(t *testing.T) {
	chip := scc.DefaultConfig()
	for name, plan := range map[string]*fault.Plan{
		"kill master":       {Kills: []fault.CoreFailure{{Core: 0, At: 1}}},
		"kill out of range": {Kills: []fault.CoreFailure{{Core: 99, At: 1}}},
		"bad probability":   {Links: []fault.LinkFault{{Src: 1, Dst: 2, DropProb: 2}}},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := farm.Config{Chip: chip, MasterCore: 0, Slaves: 4, Faults: plan}
			if _, err := farm.NewSession(cfg); !errors.Is(err, farm.ErrFaultPlan) {
				t.Errorf("NewSession error = %v, want errors.Is ErrFaultPlan", err)
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
	s, err := farm.NewSession(farm.Config{
		Chip:               scc.DefaultConfig(),
		MasterCore:         0,
		Slaves:             4,
		Faults:             &fault.Plan{Kills: []fault.CoreFailure{{Core: 1, At: 1.5 * js}}},
		JobDeadlineSeconds: 3 * js,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.StartSlaves(countJobs)
	all := intJobs(24)
	queueOf := map[int]int{1: 0, 2: 0, 3: 1, 4: 1}
	ranOn := map[int]int{}
	rep, err := s.Run("", func(m *farm.Master) {
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
		if want := id / 12; queueOf[slave] != want {
			t.Errorf("job %d of queue %d ran on slave %d of queue %d", id, want, slave, queueOf[slave])
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
	s, err := farm.NewSession(farm.Config{
		Chip:               scc.DefaultConfig(),
		MasterCore:         0,
		Slaves:             4,
		Faults:             &fault.Plan{Kills: []fault.CoreFailure{{Core: 1, At: 1.5 * js}, {Core: 2, At: 1.5 * js}}},
		JobDeadlineSeconds: 3 * js,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.StartSlaves(countJobs)
	all := intJobs(24)
	got := map[int]bool{}
	rep, err := s.Run("", func(m *farm.Master) {
		m.FarmWork(farm.Work{Queues: [][]rckskel.Job{all[:12], all[12:]}, QueueOf: map[int]int{1: 0, 2: 0, 3: 1, 4: 1}},
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

func intJobs(n int) []rckskel.Job {
	jobs := make([]rckskel.Job, n)
	for i := range jobs {
		jobs[i] = rckskel.Job{ID: i, Payload: i, Bytes: 64}
	}
	return jobs
}

func TestSessionFaultTolerantKillRun(t *testing.T) {
	js := scc.DefaultConfig().CPU.Seconds(costmodel.Counter{DPCells: 200000})
	plan := &fault.Plan{Kills: []fault.CoreFailure{{Core: 2, At: 1.5 * js}}}
	s, err := farm.NewSession(farm.Config{
		Chip:               scc.DefaultConfig(),
		MasterCore:         0,
		Slaves:             4,
		Faults:             plan,
		JobDeadlineSeconds: 3 * js,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.StartSlaves(countJobs)
	got := map[int]int{}
	rep, err := s.Run("", func(m *farm.Master) {
		m.FarmWork(farm.Work{Jobs: intJobs(24)}, func(r rckskel.Result) { got[r.JobID]++ })
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
	s, err := farm.NewSession(farm.Config{Chip: scc.DefaultConfig(), MasterCore: 0, Slaves: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.StartSlaves(countJobs)
	rep, err := s.Run("", func(m *farm.Master) {
		m.FarmWork(farm.Work{Jobs: intJobs(6)}, nil)
		m.Terminate()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults != nil {
		t.Errorf("classic run grew a Faults block: %+v", rep.Faults)
	}
}
