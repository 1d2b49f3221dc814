package rckskel

import (
	"reflect"
	"testing"

	"rckalign/internal/costmodel"
	"rckalign/internal/rcce"
	"rckalign/internal/scc"
	"rckalign/internal/sim"
)

// jobSeconds returns the simulated compute time of one doubler(cost) job.
func jobSeconds(cost uint64) float64 {
	return scc.DefaultConfig().CPU.Seconds(costmodel.Counter{DPCells: cost})
}

// deadCoreWire drops messages to fail-stopped cores, the minimal wire
// model FARM's failure detection relies on (fault.Injector provides it in
// production).
type deadCoreWire struct {
	dead map[int]bool
}

func (w *deadCoreWire) Deliver(p *sim.Process, m *rcce.Message) rcce.Outcome {
	return rcce.Outcome{Drop: w.dead[m.Dst]}
}

func (w *deadCoreWire) kill(e *sim.Engine, chip *scc.Chip, core int, at float64) {
	e.Schedule(at, func() {
		w.dead[core] = true
		e.Kill(chip.Proc(core))
	})
}

// TestFARMArmedDeadlineMatchesUnarmed: on a fault-free run a generous
// deadline never fires, so arming it changes neither statistics nor
// collection order.
func TestFARMArmedDeadlineMatchesUnarmed(t *testing.T) {
	const cost, nJobs, nSlaves = 50000, 40, 5
	run := func(cfg FTConfig) (Stats, FTStats, []int) {
		e, team := setup(nSlaves, doubler(cost))
		var st Stats
		var ft FTStats
		var order []int
		err := runMaster(e, team, func(p *sim.Process) {
			st, ft = team.FARM(p, [][]Job{intJobs(nJobs)}, nil, cfg, func(r Result) { order = append(order, r.JobID) })
		})
		if err != nil {
			t.Fatal(err)
		}
		return st, ft, order
	}
	plainSt, plainFT, plainOrder := run(FTConfig{})
	armedSt, armedFT, armedOrder := run(FTConfig{JobDeadlineSeconds: 1e6})
	if !reflect.DeepEqual(plainSt, armedSt) || !reflect.DeepEqual(plainFT, armedFT) {
		t.Errorf("stats diverge:\nunarmed %+v %+v\narmed   %+v %+v", plainSt, plainFT, armedSt, armedFT)
	}
	if !reflect.DeepEqual(plainOrder, armedOrder) {
		t.Errorf("collection order diverges:\nunarmed %v\narmed   %v", plainOrder, armedOrder)
	}
}

func TestFARMRecoversFromKill(t *testing.T) {
	const cost, nJobs = 200000, 30
	js := jobSeconds(cost)
	e, team := setup(4, doubler(cost))
	chip := team.Comm.Chip()
	wire := &deadCoreWire{dead: map[int]bool{}}
	team.Comm.SetInterposer(wire)
	wire.kill(e, chip, 2, 1.5*js) // mid-run, likely mid-compute

	got := map[int]int{}
	var ft FTStats
	err := runMaster(e, team, func(p *sim.Process) {
		cfg := FTConfig{JobDeadlineSeconds: 3 * js}
		_, ft = team.FARM(p, [][]Job{intJobs(nJobs)}, nil, cfg, func(r Result) {
			if _, dup := got[r.JobID]; dup {
				t.Errorf("job %d collected twice", r.JobID)
			}
			got[r.JobID] = r.Payload.(int)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != nJobs {
		t.Fatalf("collected %d of %d jobs", len(got), nJobs)
	}
	for id, v := range got {
		if v != 2*id {
			t.Errorf("job %d = %d, want %d", id, v, 2*id)
		}
	}
	if ft.Timeouts == 0 || ft.Retries == 0 {
		t.Errorf("kill left no trace in FT stats: %+v", ft)
	}
	if ft.LostJobs != 0 {
		t.Errorf("lost %d jobs despite healthy slaves: %+v", ft.LostJobs, ft)
	}
}

// corruptOnceWire corrupts the first message on one src->dst pair.
type corruptOnceWire struct {
	src, dst int
	used     bool
}

func (w *corruptOnceWire) Deliver(p *sim.Process, m *rcce.Message) rcce.Outcome {
	if !w.used && m.Src == w.src && m.Dst == w.dst {
		w.used = true
		return rcce.Outcome{Corrupt: true}
	}
	return rcce.Outcome{}
}

func TestFARMRetriesCorruptResult(t *testing.T) {
	const cost, nJobs = 50000, 12
	e, team := setup(3, doubler(cost))
	team.Comm.SetInterposer(&corruptOnceWire{src: 2, dst: 0})
	got := map[int]int{}
	var ft FTStats
	err := runMaster(e, team, func(p *sim.Process) {
		_, ft = team.FARM(p, [][]Job{intJobs(nJobs)}, nil, FTConfig{}, func(r Result) {
			got[r.JobID] = r.Payload.(int)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != nJobs {
		t.Fatalf("collected %d of %d jobs", len(got), nJobs)
	}
	if ft.CorruptDetected != 1 || ft.Retries != 1 {
		t.Errorf("ft stats = %+v, want 1 corrupt / 1 retry", ft)
	}
}

func TestFARMResendsCorruptJob(t *testing.T) {
	const cost, nJobs = 50000, 12
	js := jobSeconds(cost)
	e, team := setup(3, doubler(cost))
	team.Comm.SetInterposer(&corruptOnceWire{src: 0, dst: 2})
	got := map[int]int{}
	var ft FTStats
	err := runMaster(e, team, func(p *sim.Process) {
		cfg := FTConfig{JobDeadlineSeconds: 2 * js}
		_, ft = team.FARM(p, [][]Job{intJobs(nJobs)}, nil, cfg, func(r Result) {
			got[r.JobID] = r.Payload.(int)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != nJobs {
		t.Fatalf("collected %d of %d jobs", len(got), nJobs)
	}
	// The corrupted job request was discarded by the slave and re-sent
	// after the deadline.
	if ft.Timeouts == 0 || ft.Retries == 0 {
		t.Errorf("ft stats = %+v, want a timeout-driven retry", ft)
	}
}

func TestFARMBlacklistsRepeatOffender(t *testing.T) {
	const cost, nJobs = 200000, 20
	js := jobSeconds(cost)
	e, team := setup(4, doubler(cost))
	chip := team.Comm.Chip()
	wire := &deadCoreWire{dead: map[int]bool{}}
	team.Comm.SetInterposer(wire)
	wire.kill(e, chip, 3, 0.5*js)

	var ft FTStats
	got := map[int]bool{}
	err := runMaster(e, team, func(p *sim.Process) {
		cfg := FTConfig{JobDeadlineSeconds: 2 * js, MaxFailures: 1}
		_, ft = team.FARM(p, [][]Job{intJobs(nJobs)}, nil, cfg, func(r Result) { got[r.JobID] = true })
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != nJobs {
		t.Fatalf("collected %d of %d jobs", len(got), nJobs)
	}
	if !reflect.DeepEqual(ft.Blacklisted, []int{3}) {
		t.Errorf("blacklisted = %v, want [3]", ft.Blacklisted)
	}
}

func TestFARMDegradedWhenAllSlavesDie(t *testing.T) {
	const cost, nJobs = 200000, 20
	js := jobSeconds(cost)
	e, team := setup(3, doubler(cost))
	chip := team.Comm.Chip()
	wire := &deadCoreWire{dead: map[int]bool{}}
	team.Comm.SetInterposer(wire)
	for _, core := range team.Slaves {
		wire.kill(e, chip, core, 0.5*js)
	}
	collected := 0
	var ft FTStats
	err := runMaster(e, team, func(p *sim.Process) {
		cfg := FTConfig{JobDeadlineSeconds: 2 * js}
		_, ft = team.FARM(p, [][]Job{intJobs(nJobs)}, nil, cfg, func(Result) { collected++ })
	})
	if err != nil {
		t.Fatal(err)
	}
	if collected+ft.LostJobs != nJobs {
		t.Errorf("collected %d + lost %d != %d jobs", collected, ft.LostJobs, nJobs)
	}
	if ft.LostJobs == 0 {
		t.Error("killing every slave lost no jobs")
	}
}

func TestFARMDropsDuplicateFromStalledSlave(t *testing.T) {
	// Slave 1 stalls past its deadline, so job 0 is reassigned to an
	// idle slave; the stall ends while that copy is still computing, so
	// the original slave rings first (its late result is accepted) and
	// the retry's result arrives as a duplicate. Job 4 runs 3x longer
	// than the rest to keep the farm collecting until the duplicate
	// lands.
	const cost, nJobs = 200000, 5
	js := jobSeconds(cost)
	vary := func(job Job) (any, costmodel.Counter, int) {
		c := uint64(cost)
		if job.ID == 4 {
			c *= 3
		}
		return 2 * job.Payload.(int), costmodel.Counter{DPCells: c}, 8
	}
	e, team := setup(4, vary)
	chip := team.Comm.Chip()
	e.Schedule(0.5*js, func() { e.StallUntil(chip.Proc(1), 2.5*js) })
	got := map[int]int{}
	var ft FTStats
	err := runMaster(e, team, func(p *sim.Process) {
		cfg := FTConfig{JobDeadlineSeconds: 2 * js}
		_, ft = team.FARM(p, [][]Job{intJobs(nJobs)}, nil, cfg, func(r Result) {
			if _, dup := got[r.JobID]; dup {
				t.Errorf("job %d collected twice", r.JobID)
			}
			got[r.JobID] = r.Payload.(int)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != nJobs {
		t.Fatalf("collected %d of %d jobs", len(got), nJobs)
	}
	if ft.DuplicatesDropped == 0 {
		t.Errorf("reassigned copy's result not dropped as duplicate: %+v", ft)
	}
	if ft.Reassigned == 0 {
		t.Errorf("stall did not reassign work: %+v", ft)
	}
}
