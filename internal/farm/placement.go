package farm

import (
	"errors"
	"fmt"
)

// Typed configuration errors, matchable with errors.Is. New wraps them with the offending values.
var (
	// ErrSlaveCount reports a slave count below 1 or beyond the cores
	// the chip can offer beside its master.
	ErrSlaveCount = errors.New("slave count out of range")
	// ErrWorkerGrouping reports too few slave cores to form even one
	// thread-grouped worker.
	ErrWorkerGrouping = errors.New("cannot form a worker")
	// ErrFaultPlan reports an invalid fault plan (out-of-range cores,
	// faults aimed at the master, bad probabilities).
	ErrFaultPlan = errors.New("invalid fault plan")
)

// Placement assigns slave cores and groups them into worker processes.
type Placement struct {
	// WorkerLeads holds the first core of each worker process; the
	// worker's thread partners are the following Threads-1 cores. The
	// placed slave cores are 1, 2, ... in id order (core 0 is the
	// master's).
	WorkerLeads []int
	// Threads is the per-worker thread count (>= 1).
	Threads int
	// OpScale scales a job's operation counts on a multi-threaded
	// worker: 1/(Threads*threadEfficiency), 1 for single-threaded workers.
	// Session.StartSlaves charges it to the handler's ops.
	OpScale float64
	// EffectiveCores = len(WorkerLeads) * Threads.
	EffectiveCores int
	// DroppedCores counts placed cores that could not form a complete
	// worker (Slaves mod Threads leftovers).
	DroppedCores int
}

// threadEfficiency is the per-thread scaling efficiency of a grouped
// worker: DP and scoring parallelise well, the Kabsch solves less so.
const threadEfficiency = 0.9

// place computes the slave placement of slaves cores on a chip of cfg:
// cores 1..slaves in id order (core 0 is the master's), grouped into
// workers of cfg.ThreadsPerWorker cores.
func place(cfg Config, slaves int) (Placement, error) {
	if maxSlaves := cfg.Chip.NumCores() - 1; slaves < 1 || slaves > maxSlaves {
		return Placement{}, fmt.Errorf("farm: %w: %d outside [1,%d]", ErrSlaveCount, slaves, maxSlaves)
	}
	threads := max(cfg.ThreadsPerWorker, 1)
	workers := slaves / threads
	if workers < 1 {
		return Placement{}, fmt.Errorf("farm: %w: %d cores for a %d-thread worker", ErrWorkerGrouping, slaves, threads)
	}
	opScale := 1.0
	if threads > 1 {
		opScale = 1.0 / (float64(threads) * threadEfficiency)
	}
	leads := make([]int, workers)
	for w := range leads {
		leads[w] = 1 + w*threads
	}
	return Placement{
		WorkerLeads:    leads,
		Threads:        threads,
		OpScale:        opScale,
		EffectiveCores: workers * threads,
		DroppedCores:   slaves - workers*threads,
	}, nil
}
