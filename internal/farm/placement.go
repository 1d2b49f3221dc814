package farm

import (
	"errors"
	"fmt"
)

// Typed configuration errors, matchable with errors.Is. Place and New
// wrap them with the offending values.
var (
	// ErrMasterCore reports an on-chip master core outside the chip.
	ErrMasterCore = errors.New("master core out of range")
	// ErrSlaveCount reports a slave count below 1 or beyond the cores
	// the chip can offer.
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
	// Master is the master's core (HostMaster when off-chip).
	Master int
	// Cores lists the placed slave cores in id order (master skipped).
	Cores []int
	// WorkerLeads holds the first core of each worker process; the
	// worker's thread partners are the following Threads-1 cores.
	WorkerLeads []int
	// Threads is the per-worker thread count (>= 1).
	Threads int
	// OpScale scales a job's operation counts on a multi-threaded
	// worker: 1/(Threads*threadEfficiency), 1 for single-threaded workers.
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

// Place computes the slave placement for a config: cfg.Slaves cores in
// id order, skipping the master core when it is on-chip, grouped into
// workers of cfg.ThreadsPerWorker cores.
func Place(cfg Config) (Placement, error) {
	numCores := cfg.Chip.NumCores()
	maxSlaves := numCores
	if cfg.MasterCore != HostMaster {
		if cfg.MasterCore < 0 || cfg.MasterCore >= numCores {
			return Placement{}, fmt.Errorf("farm: %w: core %d outside [0,%d)", ErrMasterCore, cfg.MasterCore, numCores)
		}
		maxSlaves--
	}
	if cfg.Slaves < 1 || cfg.Slaves > maxSlaves {
		return Placement{}, fmt.Errorf("farm: %w: %d outside [1,%d]", ErrSlaveCount, cfg.Slaves, maxSlaves)
	}
	threads := max(cfg.ThreadsPerWorker, 1)
	workers := cfg.Slaves / threads
	if workers < 1 {
		return Placement{}, fmt.Errorf("farm: %w: %d cores for a %d-thread worker", ErrWorkerGrouping, cfg.Slaves, threads)
	}
	opScale := 1.0
	if threads > 1 {
		opScale = 1.0 / (float64(threads) * threadEfficiency)
	}
	cores := make([]int, 0, cfg.Slaves)
	for c := 0; len(cores) < cfg.Slaves; c++ {
		if c == cfg.MasterCore {
			continue
		}
		cores = append(cores, c)
	}
	leads := make([]int, 0, workers)
	for w := 0; w < workers; w++ {
		leads = append(leads, cores[w*threads])
	}
	return Placement{
		Master:         cfg.MasterCore,
		Cores:          cores,
		WorkerLeads:    leads,
		Threads:        threads,
		OpScale:        opScale,
		EffectiveCores: workers * threads,
		DroppedCores:   cfg.Slaves - workers*threads,
	}, nil
}
