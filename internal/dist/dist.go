// Package dist models the paper's Experiment I baseline: "distributed
// TM-align", where a controlling master process runs on the SCC host PC
// (the MCPC) and issues one remote process per pairwise comparison to
// the SCC cores via pssh. Each job pays (a) remote process spawn and
// environment setup, and (b) NFS reads of its two input structures
// through the MCPC's single disk controller — the two overheads the
// paper identifies as the reasons rckAlign wins (Section V-C).
//
// The baseline runs on the farm harness with an off-chip master
// (farm.HostMaster): the harness owns runtime construction, slave
// placement and reporting, while this package keeps its bespoke
// pssh/NFS job protocol.
package dist

import (
	"fmt"

	"rckalign/internal/core"
	"rckalign/internal/farm"
	"rckalign/internal/rckskel"
	"rckalign/internal/scc"
	"rckalign/internal/sched"
	"rckalign/internal/sim"
)

// The MCPC-side costs, calibrated so the CK34 curve lands in the region
// of the paper's Table II (about 2.5x slower than rckAlign at one slave,
// converging to about 2x at 47; see EXPERIMENTS.md). The slave cores are
// the default SCC chip's.
const (
	// spawnSeconds is the per-job remote process creation + environment
	// setup cost (ssh exec, loader, f2c runtime init) on the 800 MHz
	// core; it parallelises across cores.
	spawnSeconds = 5.0
	// dispatchSeconds is the master's per-job pssh issue cost on the
	// MCPC (serialised at the master).
	dispatchSeconds = 0.05
	// nfsSeekSeconds is the disk-controller service time per file read
	// (serialised at the single MCPC disk).
	nfsSeekSeconds = 0.06
	// nfsBytesPerSecond is the NFS data bandwidth (shared).
	nfsBytesPerSecond = 10e6
)

// RunResult reports one simulated distributed-TM-align execution.
type RunResult struct {
	farm.Report
	// DiskBusySeconds is the cumulative disk service time (for
	// utilisation analysis).
	DiskBusySeconds float64
}

// Run simulates the all-vs-all task on `slaves` SCC cores driven from
// the MCPC, replaying the native TM-align results in pr.
func Run(pr *core.PairResults, slaves int) (RunResult, error) {
	chipCfg := scc.DefaultConfig()
	if slaves < 1 || slaves > chipCfg.NumCores() {
		return RunResult{}, fmt.Errorf("dist: slave count %d outside [1,%d]", slaves, chipCfg.NumCores())
	}
	s, err := farm.New(farm.Config{
		Chip:       chipCfg,
		MasterCore: farm.HostMaster,
		Slaves:     slaves,
	})
	if err != nil {
		return RunResult{}, err
	}
	chip := s.Chip()
	rec := s.Activity()
	disk := sim.NewResource("mcpc-disk", 1)
	jobCh := sim.NewChan("pssh")
	doneCh := sim.NewChan("done")

	ds := pr.Dataset
	lengths := make([]int, ds.Len())
	for i, st := range ds.Structures {
		lengths[i] = st.Len()
	}

	type jobMsg struct {
		id   int
		pair sched.Pair
	}
	type stop struct{}

	// Slave cores: each loops pulling the next job from the MCPC master.
	// Every job is a fresh process: spawn, read both inputs over NFS,
	// compute, exit.
	for _, c := range s.Placement().Cores {
		chip.SpawnCore(c, func(p *sim.Process) {
			for {
				m := jobCh.Recv(p)
				if _, halt := m.(stop); halt {
					return
				}
				jm := m.(jobMsg)
				p.Wait(spawnSeconds)
				for _, idx := range [2]int{jm.pair.I, jm.pair.J} {
					disk.Acquire(p)
					p.Wait(nfsSeekSeconds + float64(core.FileBytes(lengths[idx]))/nfsBytesPerSecond)
					disk.Release(p)
				}
				res := pr.Get(jm.pair)
				start := p.Now()
				chip.Compute(p, res.Ops)
				rec.Add(chip.CoreName(c), start, p.Now(), "compute")
				doneCh.Send(p, rckskel.Result{JobID: jm.id, Slave: c, Payload: res})
			}
		})
	}

	// MCPC master: issue jobs to whichever core pulls next (pssh to a
	// free node), then collect completions.
	rep, err := s.Run("mcpc-master", func(m *farm.Master) {
		p := m.P
		issued := 0
		collected := 0
		// Prime every core with one job (each Send hands the job to the
		// next core that asks), then reissue on each completion.
		prime := min(slaves, len(pr.Pairs))
		for issued < prime {
			p.Wait(dispatchSeconds)
			jobCh.Send(p, jobMsg{id: issued, pair: pr.Pairs[issued]})
			issued++
		}
		for collected < len(pr.Pairs) {
			r := doneCh.Recv(p).(rckskel.Result)
			m.Collect(r)
			collected++
			if issued < len(pr.Pairs) {
				p.Wait(dispatchSeconds)
				jobCh.Send(p, jobMsg{id: issued, pair: pr.Pairs[issued]})
				issued++
			}
		}
		for range s.Placement().Cores {
			jobCh.Send(p, stop{})
		}
	})
	out := RunResult{Report: rep}
	out.DiskBusySeconds = disk.BusySeconds()
	return out, err
}

// RunSweep simulates the baseline across slave counts.
func RunSweep(pr *core.PairResults, slaveCounts []int) ([]RunResult, error) {
	return farm.Sweep(slaveCounts, false, func(n int) (RunResult, error) {
		return Run(pr, n)
	})
}
