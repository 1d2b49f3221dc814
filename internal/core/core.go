// Package core implements rckAlign, the paper's primary contribution: a
// master–slaves all-vs-all protein structure comparison application for
// the SCC built on the rckskel skeleton library. The master core loads
// every structure once, generates the pairwise job list, and FARMs the
// jobs out to slave cores; slaves run TM-align on received structure
// pairs and return results over the mesh.
//
// The expensive TM-align computations are executed natively (once per
// pair, in parallel on the host) and the simulation replays their
// measured operation counts as simulated compute time on the modelled
// P54C cores — see DESIGN.md.
//
// Every run — flat, memory-budgeted or sharded across chips (a
// sub-master per chip: the paper's proposed master tree) — goes through
// one pipeline (pipeline.go): plan the workload once, stage it, shard it,
// farm the same farm.Work, report.
package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"rckalign/internal/costmodel"
	"rckalign/internal/farm"
	"rckalign/internal/fault"
	"rckalign/internal/metrics"
	"rckalign/internal/pairstore"
	"rckalign/internal/pdb"
	"rckalign/internal/prune"
	"rckalign/internal/rckskel"
	"rckalign/internal/scc"
	"rckalign/internal/sched"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
	"rckalign/internal/trace"
)

// StructBytes models the wire size of one structure (CA coordinates as
// three float64 plus residue metadata), as the master sends it to a
// slave.
func StructBytes(residues int) int { return 32 + 25*residues }

// FileBytes models the on-disk PDB size of a chain (one 80-column ATOM
// record per residue plus header/footer), for the NFS baseline.
func FileBytes(residues int) int { return 200 + 81*residues }

// ResultBytes models the wire size of one comparison result (scores plus
// the alignment map).
func ResultBytes(len2 int) int { return 96 + 2*len2 }

// PairResults holds the native TM-align results for every all-vs-all
// pair of a dataset, computed once and replayed by the simulators.
type PairResults struct {
	Dataset *synth.Dataset
	Pairs   []sched.Pair
	// Results[k] corresponds to Pairs[k].
	Results []*tmalign.Result
	// index maps a pair to its slot.
	index map[sched.Pair]int
}

// Get returns the result for a pair.
func (pr *PairResults) Get(p sched.Pair) *tmalign.Result { return pr.Results[pr.index[p]] }

// TotalOps sums the operation counts over all pairs.
func (pr *PairResults) TotalOps() costmodel.Counter {
	var total costmodel.Counter
	for _, r := range pr.Results {
		total.Add(r.Ops)
	}
	return total
}

// SerialSeconds returns the time a single core with the given CPU profile
// needs for the whole all-vs-all task (the paper's serial baseline),
// including loading every structure once.
func (pr *PairResults) SerialSeconds(cpu costmodel.CPU) float64 {
	ops := pr.TotalOps()
	ops.Add(costmodel.Counter{ResiduesLoaded: uint64(pr.Dataset.TotalResidues())})
	return cpu.Seconds(ops)
}

// lengths returns the per-structure chain lengths of the dataset.
func (pr *PairResults) lengths() []int {
	out := make([]int, pr.Dataset.Len())
	for i, s := range pr.Dataset.Structures {
		out[i] = s.Len()
	}
	return out
}

// PairKeys returns the pairstore keys of the dataset's all-vs-all pairs
// under the given TM-align options, aligned with sched.AllVsAll order.
func PairKeys(ds *synth.Dataset, opt tmalign.Options) []pairstore.Key {
	return PairKeysFor(ds, opt, sched.AllVsAll(ds.Len()))
}

// PairKeysFor returns the pairstore keys of an explicit pair subset
// (e.g. the survivors of PrunePairs), aligned with the given order.
func PairKeysFor(ds *synth.Dataset, opt tmalign.Options, pairs []sched.Pair) []pairstore.Key {
	kernel := opt.Key()
	keys := make([]pairstore.Key, len(pairs))
	for k, p := range pairs {
		keys[k] = pairstore.Key{
			Dataset: ds.Name,
			Kernel:  kernel,
			A:       ds.Structures[p.I].ID,
			B:       ds.Structures[p.J].ID,
		}
	}
	return keys
}

// ComputeAllPairsShared assembles the dataset's all-vs-all pair results
// from the store, natively evaluating every missing pair on the store's
// host worker pool first (the comparisons are deterministic, so the
// pool size only moves wall-clock time, never results). Pairs already memoized (by a previous sweep point,
// experiment configuration or dataset pass under the same options) are
// reused, so N configurations cost one native evaluation per pair
// instead of N. A nil store computes serially with no memoization.
func ComputeAllPairsShared(ds *synth.Dataset, opt tmalign.Options, store *pairstore.Store) *PairResults {
	return ComputePairsShared(ds, opt, store, sched.AllVsAll(ds.Len()))
}

// ComputePairsShared is ComputeAllPairsShared restricted to an explicit
// pair subset: only the listed pairs are evaluated (natively, through
// the store) and only they appear in the returned PairResults. This is
// the compute path behind pruning — skipped pairs never reach the
// TM-align kernel, the farm job builders, or the -scores-out dump.
func ComputePairsShared(ds *synth.Dataset, opt tmalign.Options, store *pairstore.Store, pairs []sched.Pair) *PairResults {
	pr := &PairResults{
		Dataset: ds,
		Pairs:   pairs,
		Results: make([]*tmalign.Result, len(pairs)),
		index:   make(map[sched.Pair]int, len(pairs)),
	}
	for k, p := range pairs {
		pr.index[p] = k
	}
	keys := PairKeysFor(ds, opt, pairs)
	compute := func(k int) any {
		p := pairs[k]
		return tmalign.Compare(ds.Structures[p.I], ds.Structures[p.J], opt)
	}
	store.Prefetch(keys, compute)
	for k := range pairs {
		k := k
		pr.Results[k] = store.Get(keys[k], func() any { return compute(k) }).(*tmalign.Result)
	}
	return pr
}

// PrunePairs applies the opt-in similarity pre-filter to the dataset's
// all-vs-all pair list: per-structure features (length, secondary
// structure composition, sequence) are extracted once, every pair's
// conservative TM upper bound is evaluated, and pairs bounded below
// threshold are dropped. The returned pair list (canonical order
// preserved) feeds ComputePairsShared so skipped pairs never run the
// TM-align kernel; the report carries the skip accounting for
// farm.Report.Prune.
//
// Pairs are independent, so they are decided on every host core: one
// prune.Filter per goroutine, blocks of the canonical list claimed in
// order. Decisions land in a slice indexed by pair and the per-worker
// reports are sums, so neither the survivors nor the report depends on
// the worker count.
func PrunePairs(ds *synth.Dataset, threshold float64) ([]sched.Pair, *prune.Report) {
	feats := make([]prune.Features, ds.Len())
	for i, s := range ds.Structures {
		feats[i] = prune.Extract(s.CAs(), s.Sequence())
	}
	all := sched.AllVsAll(ds.Len())
	const block = 64
	skip := make([]bool, len(all))
	filters := make([]*prune.Filter, max(1, min(runtime.GOMAXPROCS(0), (len(all)+block-1)/block)))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range filters {
		f := prune.New(threshold)
		filters[w] = f
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(block)) - block
				if lo >= len(all) {
					return
				}
				for k := lo; k < min(lo+block, len(all)); k++ {
					skip[k] = f.Skip(&feats[all[k].I], &feats[all[k].J])
				}
			}
		}()
	}
	wg.Wait()
	rep := filters[0].Report
	for _, f := range filters[1:] {
		rep.Add(&f.Report)
	}
	kept := make([]sched.Pair, 0, rep.Total-rep.Skipped)
	for k, p := range all {
		if !skip[k] {
			kept = append(kept, p)
		}
	}
	return kept, &rep
}

// DeadlineMargin is the safety factor DeriveJobDeadline applies on top
// of the most expensive job's compute time, covering staging, transfer
// and discovery latency so a healthy slave never trips its deadline.
const DeadlineMargin = 3.0

// DefaultMaxAttempts bounds the dispatches of one job under a fault
// plan when Config.FT leaves MaxAttempts zero: a link that corrupts
// every result must lose the job, not retry it forever.
const DefaultMaxAttempts = 10

// DeriveJobDeadline returns the default fault-tolerant job deadline for
// a workload: DeadlineMargin times the compute seconds of the most
// expensive pair at the given per-core op scale.
func DeriveJobDeadline(pr *PairResults, cpu costmodel.CPU, opScale float64) float64 {
	max := 0.0
	for _, r := range pr.Results {
		if s := cpu.Seconds(r.Ops.Scaled(opScale)); s > max {
			max = s
		}
	}
	return DeadlineMargin * max
}

// SynthPairResults fabricates a PairResults for timing-only simulations
// without running native TM-align: structures carry the given chain
// lengths and each pair's operation count is a length-product DP cost.
// Scores, transforms and alignments are zero — only Ops and Len2 are
// populated, which is all the simulators consume. Resilience tests and
// sweeps use this to get a CK34-sized workload in microseconds.
func SynthPairResults(name string, lengths []int) *PairResults {
	ds := &synth.Dataset{Name: name}
	for i, l := range lengths {
		ds.Structures = append(ds.Structures, &pdb.Structure{
			ID:       fmt.Sprintf("%s-%03d", name, i),
			Residues: make([]pdb.Residue, l),
		})
	}
	pairs := sched.AllVsAll(len(lengths))
	pr := &PairResults{
		Dataset: ds,
		Pairs:   pairs,
		Results: make([]*tmalign.Result, len(pairs)),
		index:   make(map[sched.Pair]int, len(pairs)),
	}
	for k, p := range pairs {
		pr.index[p] = k
		l1, l2 := lengths[p.I], lengths[p.J]
		// ~30 DP sweeps over the L1 x L2 matrix approximates TM-align's
		// iterative refinement; exact magnitude only shifts the time scale.
		pr.Results[k] = &tmalign.Result{
			Len1: l1,
			Len2: l2,
			Ops: costmodel.Counter{
				DPCells:    30 * uint64(l1) * uint64(l2),
				ScoreEvals: 30 * uint64(min(l1, l2)),
			},
		}
	}
	return pr
}

// Config tunes an rckAlign simulation run. The fields compose freely;
// the one combination no run shape supports is MultiChipConfig.Validate.
type Config struct {
	// Chip is the SCC model (DefaultConfig = Table I).
	Chip scc.Config
	// MasterCore runs the master process (paper: core 0, "the first core
	// supplied to the program").
	MasterCore int
	// Order is the job ordering policy (paper: FIFO).
	Order sched.Order
	// OrderSeed drives sched.Random.
	OrderSeed int64
	// PollingScale scales the master's round-robin polling discovery
	// cost (1 = the paper's busy polling, 0 = ideal event-driven
	// notification; used by the polling ablation). Values below zero are
	// treated as 1.
	PollingScale float64
	// Trace, when non-nil, receives per-core activity intervals for
	// utilization/Gantt reports. The farm layer records internally even
	// when nil, so RunResult always carries per-core utilization.
	Trace *trace.Recorder
	// Metrics, when non-nil, receives counters, histograms and time
	// series from every simulation layer and enables the
	// Report.Metrics summary block (see farm.Config.Metrics).
	Metrics *metrics.Registry
	// Collector, when non-nil, observes every collected result (the
	// farm layer's pluggable sink).
	Collector farm.Collector
	// ThreadsPerWorker is the paper's closing future-work item
	// ("building support for threading into the base library"): when 2,
	// each worker process uses both cores of its tile, finishing each
	// job in 1/(2*0.9) of the serial time (DP and scoring parallelise
	// well, the Kabsch solves less so) while occupying two cores. 0 or
	// 1 = the paper's single-threaded slaves. When the slave count is
	// not a multiple, the leftover cores are not used; the rounding is
	// reported in RunResult.EffectiveCores and RunResult.DroppedCores.
	ThreadsPerWorker int
	// CacheStructs models the slave-side structure cache: the master
	// ships a structure to a slave only when the slave's bounded LRU
	// (of this many structures) does not already hold it, so a job's
	// request size becomes header + miss bytes. < 0 derives the
	// capacity from the per-core cache budget
	// (costmodel.DefaultCacheBudgetBytes over the dataset's mean chain
	// size); 0 disables the model — the paper's ship-both-structures
	// wire.
	CacheStructs int
	// Batch bundles up to Batch consecutive jobs into one request
	// message with one batched result, amortizing the master's
	// dispatch/collect overhead (0 or 1 = the paper's one message per
	// job).
	Batch int
	// Tile is the blocked pair-ordering tile size in structures: after
	// Order is applied, pairs are regrouped into Tile x Tile blocks of
	// the pair grid so consecutive jobs reuse cached structures. 0 =
	// sched.DefaultTile when the cache, batching or affinity is
	// enabled (no blocking otherwise); < 0 forces blocking off.
	Tile int
	// Affinity assigns whole tile blocks to slaves (heaviest-first onto
	// the least-loaded queue) and farms per-slave queues, so each
	// block's structures ship to exactly one slave — maximum cache
	// reuse at the price of coarser load balance.
	Affinity bool
	// Faults, when non-nil, arms the deterministic fault injector for
	// the run (global core ids on a multi-chip run) and adds the Faults
	// block to the report. Under Affinity a slave's work returns to its
	// own queue: a dead worker's remaining blocks are reported lost.
	Faults *fault.Plan
	// FT arms the farm's failure detection (deadline, retry, blacklist).
	// A zero JobDeadlineSeconds under a plan that injects something
	// derives a deadline from the most expensive job in the workload
	// (see DeriveJobDeadline) and a zero MaxAttempts becomes
	// DefaultMaxAttempts; without such a plan, nothing is armed.
	FT rckskel.FTConfig
	// Prune, when non-nil, is the pre-filter accounting of the pruning
	// pass that produced the workload (see PrunePairs); the run attaches
	// it to Report.Prune so reports carry the skip statistics. It does
	// not itself filter anything — pass PrunePairs' survivors as the
	// PairResults.
	Prune *prune.Report
	// MemoryBudgetResidues, when positive and below the dataset's total,
	// caps the residues resident at the master — the paper's closing
	// concern, "datasets too large to be loaded into memory at once".
	// The dataset is loaded in blocks of at most half the budget (so any
	// two co-reside, and the budget must hold the two largest chains)
	// and the run becomes a list of stages, each loading one block and
	// farming the pairs it completes, each swap costing
	// reloadSecondsPerResidue; see Report.Tiled.
	MemoryBudgetResidues int
}

// reloadSecondsPerResidue is the master's cost to (re)load one residue
// from storage when a block is swapped in under a memory budget — disk,
// not mesh: ~80 bytes/residue at ~20 MB/s NFS.
const reloadSecondsPerResidue = 4e-6

// DefaultConfig returns the paper's setup.
func DefaultConfig() Config {
	return Config{Chip: scc.DefaultConfig(), MasterCore: 0, Order: sched.FIFO, PollingScale: 1}
}

// RunResult reports one simulated rckAlign execution: the unified farm
// report (makespan, load time, farm stats, per-core utilization,
// effective core count).
type RunResult struct {
	farm.Report
}

// Run simulates rckAlign on `slaves` slave cores (1..NumCores-1) and
// returns the simulated timing. Results are replayed from pr, so the
// PSC output is identical to the serial baseline by construction.
// With cfg.ThreadsPerWorker = 2, the `slaves` cores are grouped into
// slaves/2 dual-threaded tile workers (an odd count leaves one core
// unused; see RunResult.DroppedCores). It is the one-chip case of
// RunMultiChip.
func Run(pr *PairResults, slaves int, cfg Config) (RunResult, error) {
	return RunMultiChip(pr, slaves, MultiChipConfig{Config: cfg})
}

// RunSweep simulates rckAlign for each slave count and returns the
// results in order (the paper's Experiment II sweep: 1,3,...,47). The
// points run concurrently (see farm.Sweep) unless cfg hands them all the
// same Trace, Metrics or Collector.
func RunSweep(pr *PairResults, slaveCounts []int, cfg Config) ([]RunResult, error) {
	return farm.Sweep(slaveCounts, cfg.sharesSinks(), func(n int) (RunResult, error) {
		return Run(pr, n, cfg)
	})
}

// sharesSinks reports whether every run made with cfg writes to a
// caller-owned sink.
func (cfg Config) sharesSinks() bool {
	return cfg.Trace != nil || cfg.Metrics != nil || cfg.Collector != nil
}

// OddSlaveCounts returns the paper's sweep 1, 3, 5, ..., max.
func OddSlaveCounts(max int) []int {
	var out []int
	for n := 1; n <= max; n += 2 {
		out = append(out, n)
	}
	return out
}

// LoadDatasetDir reads every *.pdb file in a directory as a dataset, for
// users who want to run on real PDB chains instead of the synthetic
// stand-ins.
func LoadDatasetDir(name string, paths []string) (*synth.Dataset, error) {
	ds := &synth.Dataset{Name: name}
	for _, p := range paths {
		s, err := pdb.ParseFile(p)
		if err != nil {
			return nil, err
		}
		ds.Structures = append(ds.Structures, s)
	}
	if len(ds.Structures) < 2 {
		return nil, fmt.Errorf("core: dataset %s needs at least 2 structures", name)
	}
	return ds, nil
}
