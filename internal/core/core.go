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
	"rckalign/internal/pairstore"
	"rckalign/internal/pdb"
	"rckalign/internal/prune"
	"rckalign/internal/scc"
	"rckalign/internal/sched"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
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

// ComputeAllPairsShared evaluates the dataset's all-vs-all pairs
// through the store, natively on the store's host worker pool (the
// comparisons are deterministic, so the pool size only moves wall-clock
// time, never results). Pairs the store already holds under the same
// options are shared, not recomputed. A nil store computes serially
// with no memoization.
func ComputeAllPairsShared(ds *synth.Dataset, opt tmalign.Options, store *pairstore.Store) *PairResults {
	return ComputePairsShared(ds, opt, store, sched.AllVsAll(ds.Len()))
}

// ComputePairsShared is ComputeAllPairsShared restricted to an explicit
// pair subset: only the listed pairs are evaluated (natively, through
// the store) and only they appear in the returned PairResults. This is
// the compute path behind pruning — skipped pairs never reach the
// TM-align kernel, the farm job builders, or the -scores-out dump.
func ComputePairsShared(ds *synth.Dataset, opt tmalign.Options, store *pairstore.Store, pairs []sched.Pair) *PairResults {
	results := pairEvaluator(ds, opt, store)(pairs)
	return newPairResults(ds, pairs, func(k int) *tmalign.Result { return results[k].(*tmalign.Result) })
}

// pairEvaluator returns a function that evaluates a list of ds's pairs
// under opt through the store, value k the *tmalign.Result of pairs[k].
// Its calls share one lazily prepared form of each structure, so a
// structure is prepared once, by the first comparison that reaches it,
// however many calls (ComputeCached's checkpoint chunks) the pairs
// arrive in.
func pairEvaluator(ds *synth.Dataset, opt tmalign.Options, store *pairstore.Store) func(pairs []sched.Pair) []any {
	lazy := make([]tmalign.Lazy, ds.Len())
	for i, s := range ds.Structures {
		lazy[i].Structure = s
	}
	return func(pairs []sched.Pair) []any {
		return store.Prefetch(PairKeysFor(ds, opt, pairs), func(k int) any {
			p := pairs[k]
			return tmalign.ComparePrepared(lazy[p.I].Get(), lazy[p.J].Get(), opt)
		})
	}
}

// newPairResults returns the results of ds's pairs, result(k) those of
// pairs[k].
func newPairResults(ds *synth.Dataset, pairs []sched.Pair, result func(k int) *tmalign.Result) *PairResults {
	pr := &PairResults{Dataset: ds, Pairs: pairs, Results: make([]*tmalign.Result, len(pairs)), index: make(map[sched.Pair]int, len(pairs))}
	for k, p := range pairs {
		pr.index[p], pr.Results[k] = k, result(k)
	}
	return pr
}

// PrunePairs applies the opt-in similarity pre-filter to the dataset's
// all-vs-all pair list: per-structure features (length, secondary
// structure composition, sequence) are extracted once, every pair's
// conservative TM upper bound is evaluated, and pairs bounded below
// threshold are dropped. The returned pair list (canonical order
// preserved) feeds ComputePairsShared so skipped pairs never run the
// TM-align kernel; the report carries the skip accounting.
//
// Pairs are independent, so they are decided on every host core: one
// prune.Filter per goroutine, each query's run of the canonical list
// claimed in order and decided by one Filter.SkipAll. Decisions land in
// a slice indexed by pair and the per-worker reports are sums, so
// neither the survivors nor the report depends on the worker count.
func PrunePairs(ds *synth.Dataset, threshold float64) ([]sched.Pair, *prune.Report) {
	feats := make([]prune.Features, ds.Len())
	for i, s := range ds.Structures {
		feats[i] = prune.Extract(s.CAs(), s.Sequence())
	}
	all := sched.AllVsAll(ds.Len())
	skip := make([]bool, len(all))
	filters := make([]*prune.Filter, max(1, min(runtime.GOMAXPROCS(0), ds.Len()-1)))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range filters {
		f := prune.New(threshold)
		filters[w] = f
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Query i's pairs (i, i+1..n-1) are one run of the canonical
			// order, decided together so their DPs share SIMD lanes.
			for n := len(feats); ; {
				i := int(next.Add(1)) - 1
				if i >= n-1 {
					return
				}
				lo := i*n - i*(i+1)/2
				f.SkipAll(&feats[i], feats[i+1:], skip[lo:lo+n-1-i])
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
	return newPairResults(ds, pairs, func(k int) *tmalign.Result {
		l1, l2 := lengths[pairs[k].I], lengths[pairs[k].J]
		// ~30 DP sweeps over the L1 x L2 matrix approximates TM-align's
		// iterative refinement; exact magnitude only shifts the time scale.
		return &tmalign.Result{Len1: l1, Len2: l2, Ops: costmodel.Counter{
			DPCells:    30 * uint64(l1) * uint64(l2),
			ScoreEvals: 30 * uint64(min(l1, l2)),
		}}
	})
}

// Config tunes an rckAlign simulation run: the simulated board
// (farm.Config) plus what the run plans with. Every combination of the
// fields composes. Run resolves one farm.Config sentinel per workload:
// CacheStructs < 0 derives the per-slave cache capacity from the per-core
// cache budget (costmodel.DefaultCacheBudgetBytes over the dataset's mean
// chain size). The farm times the jobs: see farm.Config.Faults.
type Config struct {
	farm.Config
	// Order is the job ordering policy (paper: FIFO).
	Order sched.Order
	// OrderSeed drives sched.Random.
	OrderSeed int64
	// Affinity assigns whole tile blocks to slaves (heaviest-first onto
	// the least-loaded queue) and farms per-slave queues, so each
	// block's structures ship to exactly one slave — maximum cache
	// reuse at the price of coarser load balance. Under Faults a
	// slave's work returns to its own queue: a dead worker's remaining
	// blocks are reported lost.
	Affinity bool
	// MemoryBudgetResidues, when positive and below the dataset's total,
	// caps the residues resident at the master — the paper's closing
	// concern, "datasets too large to be loaded into memory at once".
	// The dataset is loaded in blocks of at most half the budget (so any
	// two co-reside, and the budget must hold the two largest chains)
	// and the run becomes a list of stages, each loading one block and
	// farming the pairs it completes, each swap costing
	// reloadSecondsPerResidue on the root's clock; see Report.Tiled. On a
	// board the root scatters each stage's shards, and a sub-master holds
	// only the shard it was sent, never more than the budget.
	MemoryBudgetResidues int
}

// reloadSecondsPerResidue is the master's cost to (re)load one residue
// from storage when a block is swapped in under a memory budget — disk,
// not mesh: ~80 bytes/residue at ~20 MB/s NFS.
const reloadSecondsPerResidue = 4e-6

// DefaultConfig returns the paper's setup.
func DefaultConfig() Config {
	return Config{Config: farm.Config{Chip: scc.DefaultConfig(), PollingScale: 1}, Order: sched.FIFO}
}

// RunResult reports one simulated rckAlign execution: the unified farm
// report (makespan, load time, farm stats, per-core utilization,
// effective core count).
type RunResult struct {
	farm.Report
}

// Run simulates rckAlign on cfg.Chips SCC chips (0 or 1 = the paper's
// flat farm) with `slaves` slave cores (1..NumCores-1) each and returns
// the simulated timing. Results are replayed from pr, so the PSC output
// is identical to the serial baseline by construction.
//
// The pair list is cut into stages (one, unless MemoryBudgetResidues
// forces a block load schedule), each stage's pairs are ordered and
// sharded into whole sched.DefaultTile blocks across chips (heaviest
// block first onto the least loaded chip; one chip gets the list
// unchanged), and each shard is farmed by its chip's master. On more
// than one chip the root master on chip 0 scatters each stage's shards
// over the interchip fabric and results return as aggregate blobs up
// the configured gather topology; fault plans (core ids global across
// the board) are split per chip and affinity deals each shard onto that
// chip's workers. Run returns the farm's typed errors and the plan's
// input errors (a chain longer than half the memory budget).
func Run(pr *PairResults, slaves int, cfg Config) (RunResult, error) {
	rep, err := newPlan(pr, slaves, cfg).run()
	return RunResult{Report: rep}, err
}

// RunSweep simulates rckAlign for each slave count and returns the
// results in order (the paper's Experiment II sweep: 1,3,...,47). The
// points run concurrently (see farm.Sweep) unless cfg hands them all the
// same Trace, Metrics or Collect hook.
func RunSweep(pr *PairResults, slaveCounts []int, cfg Config) ([]RunResult, error) {
	return farm.Sweep(slaveCounts, cfg.sharesSinks(), func(n int) (RunResult, error) {
		return Run(pr, n, cfg)
	})
}

// sharesSinks reports whether every run made with cfg writes to a
// caller-owned sink.
func (cfg Config) sharesSinks() bool {
	return cfg.Trace != nil || cfg.Metrics != nil || cfg.Collect != nil
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
