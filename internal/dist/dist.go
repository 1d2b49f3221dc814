// Package dist models the paper's Experiment I baseline: "distributed
// TM-align", where a controlling master process runs on the SCC host PC
// (the MCPC) and issues one remote process per pairwise comparison to
// the SCC cores via pssh. Each job pays (a) remote process spawn and
// environment setup, and (b) NFS reads of its two input structures
// through the MCPC's single disk controller — the two overheads the
// paper identifies as the reasons rckAlign wins (Section V-C).
//
// The baseline runs no FARM: its master is a host process, not a core,
// so it drives its own engine and chip with a bespoke pssh/NFS job
// protocol.
package dist

import (
	"fmt"

	"rckalign/internal/core"
	"rckalign/internal/farm"
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
	// TotalSeconds is the simulated end-to-end time: when the MCPC
	// master has collected every result and stopped every core.
	TotalSeconds float64
	// Collected counts results received by the master.
	Collected int
	// DiskBusySeconds is the cumulative disk service time (for
	// utilisation analysis).
	DiskBusySeconds float64
}

// Run simulates the all-vs-all task on `slaves` SCC cores (0..slaves-1:
// the master is off-chip) driven from the MCPC, replaying the native
// TM-align results in pr.
func Run(pr *core.PairResults, slaves int) (RunResult, error) {
	chipCfg := scc.DefaultConfig()
	if slaves < 1 || slaves > chipCfg.NumCores() {
		return RunResult{}, fmt.Errorf("dist: slave count %d outside [1,%d]", slaves, chipCfg.NumCores())
	}
	engine := sim.NewEngine()
	chip := scc.New(engine, chipCfg)
	disk := sim.NewResource("mcpc-disk", 1)
	jobCh := sim.NewChan("pssh")
	doneCh := sim.NewChan("done")
	structs := pr.Dataset.Structures

	// Slave cores: each loops pulling the next job (a sched.Pair; nil
	// stops it) from the MCPC master. Every job is a fresh process:
	// spawn, read both inputs over NFS, compute, exit.
	for c := range slaves {
		chip.SpawnCore(c, func(p *sim.Process) {
			for {
				pair, ok := jobCh.Recv(p).(sched.Pair)
				if !ok {
					return
				}
				p.Wait(spawnSeconds)
				for _, idx := range [2]int{pair.I, pair.J} {
					disk.Acquire(p)
					p.Wait(nfsSeekSeconds + float64(core.FileBytes(structs[idx].Len()))/nfsBytesPerSecond)
					disk.Release(p)
				}
				chip.Compute(p, pr.Get(pair).Ops)
				doneCh.Send(p, nil)
			}
		})
	}

	// MCPC master: issue jobs to whichever core pulls next (pssh to a
	// free node), then collect completions.
	var out RunResult
	engine.Spawn("mcpc-master", func(p *sim.Process) {
		issued := 0
		// Prime every core with one job (each Send hands the job to the
		// next core that asks), then reissue on each completion.
		prime := min(slaves, len(pr.Pairs))
		for issued < prime {
			p.Wait(dispatchSeconds)
			jobCh.Send(p, pr.Pairs[issued])
			issued++
		}
		for out.Collected < len(pr.Pairs) {
			doneCh.Recv(p)
			out.Collected++
			if issued < len(pr.Pairs) {
				p.Wait(dispatchSeconds)
				jobCh.Send(p, pr.Pairs[issued])
				issued++
			}
		}
		for range slaves {
			jobCh.Send(p, nil)
		}
		out.TotalSeconds = p.Now()
	})
	err := engine.Run()
	out.DiskBusySeconds = disk.BusySeconds()
	return out, err
}

// RunSweep simulates the baseline across slave counts.
func RunSweep(pr *core.PairResults, slaveCounts []int) ([]RunResult, error) {
	return farm.Sweep(slaveCounts, false, func(n int) (RunResult, error) {
		return Run(pr, n)
	})
}
