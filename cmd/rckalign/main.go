// Command rckalign runs the all-vs-all protein structure comparison task
// on the simulated SCC many-core processor, reproducing the paper's
// Experiment II: a master core loads the dataset, FARMs the pairwise
// TM-align jobs to slave cores, and the simulated end-to-end time and
// speedup are reported.
//
// Usage:
//
//	rckalign [-dataset CK34|RS119] [-slaves N | -sweep] [-order FIFO|LPT|Random]
//	         [-cache DIR] [-fast] [-csv] [-faults SPEC]
//	         [-structcache N] [-batch K] [-tile T] [-affinity] [-hostpar N]
//	         [-threads T] [-membudget R] [-chips N]
//	         [-metrics-out FILE] [-trace-out FILE] [-scores-out FILE] [-heatmap]
//
// Every run goes through core's one pipeline, so the flags compose:
// ordering, the wire model, threads and faults are properties of the
// planned workload and apply whether it is farmed flat, in memory-
// budgeted stages (-membudget) or sharded across chips (-chips). The one
// combination no run path supports (core's MultiChipConfig.Validate:
// -membudget with -chips > 1) and flags that could not take effect
// (-deadline without -faults, -interchip or -gather at -chips 1, -slaves
// below -threads) exit 2 with a one-line diagnostic before the dataset
// loads; -sweep starts at the first slave count that forms a worker.
//
// -structcache enables the slave-side structure-cache model (-1 derives
// the per-slave capacity from the default memory budget), -batch bundles
// up to K jobs per request message, -tile regroups the pair grid into
// T x T blocks for cache locality, and -affinity pins whole blocks to
// slaves. All four only re-frame the wire protocol: the TM-align scores
// are bit-identical to the classic run, which -scores-out lets you check
// by dumping every pair's scores deterministically (sorted by pair, full
// float64 precision) for a byte-for-byte diff between configurations.
//
// -hostpar fans the native TM-align evaluation on a pair-cache miss out
// over N host worker goroutines via a memoized pair store. It only
// moves host wall-clock time: simulated timings, reports, metrics and
// -scores-out dumps are bit-identical for every N (0 = serial).
//
// -prune-tm T enables the opt-in similarity pre-filter (see
// internal/prune): pairs whose conservative TM upper bound — derived
// from chain lengths, secondary-structure composition and a cheap
// sequence alignment — falls below T are skipped entirely, never
// reaching the TM-align kernel, the farm or the -scores-out dump. At
// T=0 (default) every pair is compared and output is byte-identical to
// previous releases.
//
// -metrics-out dumps the run's metrics registry (counters, histograms,
// time series from every simulation layer) as deterministic JSON;
// -trace-out writes a Chrome trace-event file loadable in Perfetto
// (ui.perfetto.dev) with one thread track per core and counter tracks
// for the master's mailbox depth and mesh link occupancy. On a sweep,
// both describe the last run.
//
// -faults takes a fault-injection spec (see internal/fault.ParseSpec),
// e.g. "seed=1;kill=12@40;kill=30@90;drop=*>0@p0.01". There is one farm
// protocol: a spec that injects something arms its per-job deadline
// (-deadline, or derived from the workload) and retry, while an empty
// one ("seed=1") leaves the run, its metrics and its scores
// byte-identical to the plain run's. A failed job returns to the queue
// it came from, so under -affinity a dead slave's remaining blocks have
// no other taker and are reported lost.
//
// -chips N shards the pair matrix across N simulated SCC chips joined
// by a board-level interconnect: a root master on chip 0 scatters whole
// tile blocks to per-chip sub-masters, each chip farms its shard on its
// own mesh and aggregates its results locally, and the aggregate blobs
// travel back up the -gather topology ("tree" — a fan-in tree of
// configurable arity, "tree:2" — or "flat", every chip straight to the
// root) — the hierarchy of masters the paper proposes for when the
// single master becomes the bottleneck. -chips 1 (the default) is the
// classic single-chip run, byte-identical in reports and -scores-out
// dumps; scores stay byte-identical at every chip count and gather mode.
// -interchip selects the interconnect cost profile: a name (board,
// cluster, ideal) or "lat=2e-6,bw=1.6e9[,recv=5e-7][,ports=1]" (unset
// keys inherit the board profile). -faults (global core ids, chip =
// id/48) and -affinity work per chip.
//
// -membudget R caps the residues resident at the master: the dataset is
// loaded in blocks and farmed stage by stage, and a "tiled" stderr line
// reports the block schedule.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"rckalign/internal/core"
	"rckalign/internal/costmodel"
	"rckalign/internal/farm"
	"rckalign/internal/fault"
	"rckalign/internal/interchip"
	"rckalign/internal/metrics"
	"rckalign/internal/pairstore"
	"rckalign/internal/rckskel"
	"rckalign/internal/sched"
	"rckalign/internal/stats"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
	"rckalign/internal/trace"
)

// cliFlags gathers the numeric/enum flag values that validateFlags
// checks before any work starts.
type cliFlags struct {
	Slaves      int
	Sweep       bool
	Order       string
	Threads     int
	MemBudget   int
	Deadline    float64
	Polling     float64
	StructCache int
	Batch       int
	Tile        int
	HostPar     int
	Chips       int
	Interchip   string
	Gather      string
	Affinity    bool
	FaultSpec   string
	PruneTM     float64
}

// maxChips bounds -chips: beyond 64 chips the single root master is the
// whole story and the simulation only burns memory.
const maxChips = 64

// validateFlags rejects out-of-range flag values, flags that could not
// take effect and the one combination no run path supports with a
// one-line diagnostic before the dataset is even loaded, and resolves
// the flags into the run configuration (job ordering, fault plan,
// interchip profile, gather topology). Values with documented sentinel
// semantics (-structcache -1, -tile -1, -batch 0, -polling 0) stay valid.
func validateFlags(f cliFlags) (core.MultiChipConfig, error) {
	cfg := core.MultiChipConfig{Config: core.DefaultConfig(), Chips: f.Chips}
	ord, ok := map[string]sched.Order{
		"FIFO": sched.FIFO, "LPT": sched.LPT, "SPT": sched.SPT, "RANDOM": sched.Random,
	}[strings.ToUpper(f.Order)]
	if !ok {
		return cfg, fmt.Errorf("-order %q is not FIFO, LPT, SPT or Random", f.Order)
	}
	if !f.Sweep && (f.Slaves < 1 || f.Slaves > 47) {
		return cfg, fmt.Errorf("-slaves %d outside [1,47]", f.Slaves)
	}
	if f.Threads < 1 || f.Threads > 47 {
		return cfg, fmt.Errorf("-threads %d outside [1,47]", f.Threads)
	}
	if !f.Sweep && f.Slaves < f.Threads {
		return cfg, fmt.Errorf("-slaves %d cannot form one -threads %d worker", f.Slaves, f.Threads)
	}
	if f.MemBudget < 0 {
		return cfg, fmt.Errorf("-membudget %d is negative", f.MemBudget)
	}
	if f.Deadline < 0 {
		return cfg, fmt.Errorf("-deadline %g is negative", f.Deadline)
	}
	if math.IsNaN(f.Deadline) || math.IsInf(f.Deadline, 0) {
		return cfg, fmt.Errorf("-deadline %g is not a finite number of seconds", f.Deadline)
	}
	if f.Polling < 0 {
		return cfg, fmt.Errorf("-polling %g is negative", f.Polling)
	}
	if f.StructCache < -1 {
		return cfg, fmt.Errorf("-structcache %d below -1 (-1 = derive, 0 = off)", f.StructCache)
	}
	if f.Batch < 0 {
		return cfg, fmt.Errorf("-batch %d is negative (0 or 1 = one message per job)", f.Batch)
	}
	if f.Tile < -1 {
		return cfg, fmt.Errorf("-tile %d below -1 (-1 = force off, 0 = auto)", f.Tile)
	}
	if f.HostPar < 0 {
		return cfg, fmt.Errorf("-hostpar %d is negative (0 = serial host evaluation)", f.HostPar)
	}
	if f.PruneTM < 0 || f.PruneTM > 1 {
		return cfg, fmt.Errorf("-prune-tm %g outside [0,1] (0 = no pruning)", f.PruneTM)
	}
	if f.Chips < 1 || f.Chips > maxChips {
		return cfg, fmt.Errorf("-chips %d outside [1,%d]", f.Chips, maxChips)
	}
	cfg.Order = ord
	cfg.ThreadsPerWorker = f.Threads
	cfg.MemoryBudgetResidues = f.MemBudget
	cfg.PollingScale = f.Polling
	cfg.CacheStructs = f.StructCache
	cfg.Batch = f.Batch
	cfg.Tile = f.Tile
	cfg.Affinity = f.Affinity
	var err error
	if f.FaultSpec != "" {
		if cfg.Faults, err = fault.ParseSpec(f.FaultSpec); err != nil {
			return cfg, fmt.Errorf("-faults %q: %v", f.FaultSpec, err)
		}
		cfg.JobDeadlineSeconds = f.Deadline
	} else if f.Deadline > 0 {
		return cfg, fmt.Errorf("-deadline %g without -faults has no effect", f.Deadline)
	}
	cfg.Interchip = interchip.DefaultConfig()
	if f.Interchip != "" {
		if cfg.Interchip, err = interchip.ParseSpec(f.Interchip); err != nil {
			return cfg, fmt.Errorf("-interchip %q: %v", f.Interchip, err)
		}
		if f.Chips == 1 {
			return cfg, fmt.Errorf("-interchip %q has no effect at -chips 1", f.Interchip)
		}
	}
	if cfg.Gather, err = farm.ParseGatherSpec(f.Gather); err != nil {
		return cfg, fmt.Errorf("-gather %q: %v", f.Gather, err)
	}
	if f.Gather != "" && f.Chips == 1 {
		return cfg, fmt.Errorf("-gather %q has no effect at -chips 1", f.Gather)
	}
	if err = cfg.Validate(); errors.Is(err, core.ErrBudgetAcrossChips) {
		err = errors.New("-membudget with -chips > 1 is unsupported")
	}
	return cfg, err
}

func main() {
	dataset := flag.String("dataset", "CK34", "dataset: CK34 or RS119")
	slaves := flag.Int("slaves", 47, "number of slave cores (1-47)")
	sweep := flag.Bool("sweep", false, "sweep slave counts 1,3,...,47 (the paper's Experiment II)")
	order := flag.String("order", "FIFO", "job ordering: FIFO, LPT, SPT or Random")
	cacheDir := flag.String("cache", "testdata/paircache", "pair-result cache directory (empty = always recompute)")
	fast := flag.Bool("fast", false, "use the fast TM-align profile: every pair is computed natively (-cache holds default-profile results only)")
	csv := flag.Bool("csv", false, "emit CSV instead of a text table")
	util := flag.Bool("util", false, "print the per-core utilization of the (last) run")
	threads := flag.Int("threads", 1, "threads per worker (2 = dual-core tile workers; paper future work)")
	memBudget := flag.Int("membudget", 0, "master memory budget in residues (0 = unlimited; >0 = out-of-core tiled run)")
	faultSpec := flag.String("faults", "", "fault-injection spec, e.g. \"seed=1;kill=12@40;drop=*>0@p0.01\" (empty = no faults)")
	deadline := flag.Float64("deadline", 0, "fault-tolerant per-job deadline in seconds (0 = derive from workload; needs -faults)")
	polling := flag.Float64("polling", 1, "scale the master's per-collection polling discovery cost (0 = ideal event-driven, 1 = the paper's busy polling; large values emulate fine-grained jobs saturating the master)")
	structCache := flag.Int("structcache", 0, "slave-side structure-cache capacity in structures (0 = off, the paper's wire; -1 = derive from the per-core memory budget)")
	batch := flag.Int("batch", 0, "bundle up to this many jobs per request message (0 or 1 = one message per job)")
	tile := flag.Int("tile", 0, "blocked pair-ordering tile size (0 = auto when caching/batching/affinity is on; -1 = force off)")
	affinity := flag.Bool("affinity", false, "pin whole tile blocks to slaves (max cache reuse, coarser balance; under -faults a dead slave's blocks are lost)")
	scoresOut := flag.String("scores-out", "", "write the (last) run's per-pair TM-align scores, sorted by pair, to this file")
	metricsOut := flag.String("metrics-out", "", "write the metrics registry snapshot of the (last) run as JSON to this file")
	traceOut := flag.String("trace-out", "", "write a Chrome/Perfetto trace-event JSON of the (last) run to this file")
	heatmap := flag.Bool("heatmap", false, "print the mesh link heatmap of the (last) run")
	hostpar := flag.Int("hostpar", runtime.GOMAXPROCS(0), "host worker goroutines for native pair evaluation on a cache miss (0 = serial; simulated results are identical either way)")
	chips := flag.Int("chips", 1, "shard the pair matrix across this many SCC chips (1 = the classic single-chip run, byte-identical reports and scores)")
	interchipSpec := flag.String("interchip", "", "inter-chip interconnect profile: board, cluster, ideal, or \"lat=S,bw=B[,recv=S][,ports=N]\" (empty = board; needs -chips > 1)")
	gatherSpec := flag.String("gather", "", "multi-chip result gather topology: tree, tree:ARITY, or flat (empty = tree of arity 4; needs -chips > 1)")
	pruneTM := flag.Float64("prune-tm", 0, "skip pairs whose conservative TM upper bound falls below this threshold (0 = compare every pair; pruned pairs are absent from -scores-out)")
	flag.Parse()

	cfg, err := validateFlags(cliFlags{
		Slaves: *slaves, Sweep: *sweep, Order: *order,
		Threads: *threads, MemBudget: *memBudget, Deadline: *deadline,
		Polling: *polling, StructCache: *structCache, Batch: *batch,
		Tile: *tile, HostPar: *hostpar, Chips: *chips, Interchip: *interchipSpec,
		Gather: *gatherSpec, Affinity: *affinity, FaultSpec: *faultSpec,
		PruneTM: *pruneTM,
	})
	if err != nil {
		usageFatal(err)
	}

	ds, err := synth.ByName(*dataset)
	if err != nil {
		usageFatal(err)
	}
	opt := tmalign.DefaultOptions()
	if *fast {
		opt = tmalign.FastOptions()
	}
	cachePath := ""
	if *cacheDir != "" {
		cachePath = filepath.Join(*cacheDir, ds.Name+".gob")
	}
	// -hostpar 0 means serial host evaluation; the store still memoizes.
	workers := *hostpar
	if workers == 0 {
		workers = 1
	}
	store := pairstore.New(workers)
	fmt.Fprintf(os.Stderr, "loading %s (%d chains, %d pairs)...\n", ds.Name, ds.Len(), ds.Pairs())
	var pr *core.PairResults
	if *pruneTM > 0 {
		// Pruning changes the workload, so the full-matrix disk cache does
		// not apply: survivors are computed through the (memoized) pair
		// store and skipped pairs never reach the TM-align kernel.
		kept, rep := core.PrunePairs(ds, *pruneTM)
		fmt.Fprintf(os.Stderr, "prune: %d of %d pairs below TM bound %g (%.1f%% skipped, filter cost %d DP cells)\n",
			rep.Skipped, rep.Total, rep.Threshold, 100*rep.SkipFraction(), rep.DPCells)
		pr = core.ComputePairsShared(ds, opt, store, kept)
	} else {
		var err error
		pr, err = core.ComputeOrLoadShared(ds, opt, cachePath, store)
		if err != nil {
			fatal(err)
		}
	}

	baseline := pr.SerialSeconds(costmodel.P54C())
	counts := []int{*slaves}
	if *sweep {
		counts = core.OddSlaveCounts(47)
		if *threads > 1 {
			// Fewer slaves than threads cannot form one worker.
			i := sort.SearchInts(counts, *threads)
			fmt.Fprintf(os.Stderr, "note: -sweep starts at %d slaves: fewer cannot form a %d-thread worker\n", counts[i], *threads)
			counts = counts[i:]
		}
	}

	tb := stats.NewTable(
		fmt.Sprintf("rckAlign all-vs-all on %s (serial P54C baseline: %.0f s)", ds.Name, baseline),
		"Slave Cores", "Time (s)", "Speedup", "Efficiency", "Peak Mbox", "Worst Link Util")
	// Results travel the simulated farm as *tmalign.Result pointers, so a
	// reverse index recovers each collected result's pair for -scores-out.
	pairOf := make(map[*tmalign.Result]sched.Pair, len(pr.Pairs))
	for k, r := range pr.Results {
		pairOf[r] = pr.Pairs[k]
	}
	// Every point records into sinks of its own, so the points are
	// independent and farm.Sweep may run them concurrently; rows, notes and
	// files are then written in point order. Only the last point's sinks
	// reach -scores-out, -metrics-out, -trace-out and -util.
	type point struct {
		rep    farm.Report
		rec    *trace.Recorder
		reg    *metrics.Registry
		scores map[sched.Pair]*tmalign.Result
	}
	points, err := farm.Sweep(counts, false, func(n int) (point, error) {
		var pt point
		cfg := cfg
		if *scoresOut != "" {
			pt.scores = make(map[sched.Pair]*tmalign.Result, len(pr.Pairs))
			cfg.Collector = farm.CollectorFunc(func(r rckskel.Result) {
				if res, ok := r.Payload.(*tmalign.Result); ok {
					pt.scores[pairOf[res]] = res
				}
			})
		}
		if *util || *traceOut != "" {
			pt.rec = trace.New()
		}
		cfg.Trace = pt.rec
		// Metrics are always on in the CLI: they are passive (timings are
		// unchanged) and feed the mailbox/link columns of every run.
		pt.reg = metrics.New()
		cfg.Metrics = pt.reg
		r, err := core.RunMultiChip(pr, n, cfg)
		pt.rep = r.Report
		if n != counts[len(counts)-1] {
			pt.rec, pt.reg, pt.scores = nil, nil, nil
		}
		return pt, err
	})
	var last point
	for i, pt := range points {
		n, rep := counts[i], pt.rep
		last = pt
		if rep.DroppedCores > 0 {
			fmt.Fprintf(os.Stderr, "note: %d of %d slave cores idle (%d is not a multiple of %d threads/worker)\n",
				rep.DroppedCores, n, n, *threads)
		}
		sp := baseline / rep.TotalSeconds
		// Efficiency counts only the cores that actually form workers.
		var peakMbox, worstUtil float64
		if rep.Metrics != nil {
			peakMbox = rep.Metrics.PeakMailboxDepth
			worstUtil = rep.Metrics.WorstLinkUtilization
		}
		tb.AddRowf(n, rep.TotalSeconds, sp, sp/float64(rep.EffectiveCores),
			fmt.Sprintf("%.0f", peakMbox), fmt.Sprintf("%.2e", worstUtil))
		if w := rep.Wire; w != nil {
			fmt.Fprintf(os.Stderr,
				"wire (%d slaves): input %.2f MB -> %.2f MB (%.2fx reduction); cache cap=%d hit-rate=%.1f%% evictions=%d; "+
					"batches=%d mean-jobs=%.1f max-jobs=%d\n",
				n, float64(w.BaselineInputBytes)/1e6, float64(w.ShippedInputBytes)/1e6, w.InputReduction,
				w.CacheCapacity, 100*w.CacheHitRate, w.CacheEvictions,
				w.Batches, w.MeanBatchJobs, w.MaxBatchJobs)
		}
		if tl := rep.Tiled; tl != nil {
			fmt.Fprintf(os.Stderr, "tiled (%d slaves): blocks=%d loads=%d reload=%.4f s\n",
				n, tl.Blocks, tl.BlockLoads, tl.ReloadSeconds)
		}
		if ic := rep.Interchip; ic != nil {
			fmt.Fprintf(os.Stderr,
				"interchip (%d chips x %d slaves, %s): transfers=%d total %.2f MB (shards %.2f MB, results %.2f MB vs %.2f MB per-pair); "+
					"send-wait %.3f s; peak root inbox=%d; intra-chip %.2f MB\n",
				rep.Chips, n, ic.Profile, ic.Transfers, float64(ic.Bytes)/1e6,
				float64(ic.ShardBytes)/1e6, float64(ic.ResultBytes)/1e6, float64(ic.PerPairResultBytes)/1e6,
				ic.SendWaitSeconds, ic.PeakRootInbox, float64(ic.IntraChipBytes)/1e6)
			fmt.Fprintf(os.Stderr,
				"gather (%s arity=%d depth=%d): root fan-in=%d flows=%d; %d aggregate blobs\n",
				ic.GatherMode, ic.GatherArity, ic.GatherDepth, ic.RootFanIn, ic.RootFlows, ic.AggMessages)
			for _, gl := range ic.GatherLevels {
				fmt.Fprintf(os.Stderr, "  level %d: %d blobs, mean hop %.2e s, max %.2e s\n",
					gl.Level, gl.Blobs, gl.MeanLatencySeconds, gl.MaxLatencySeconds)
			}
			for _, cr := range rep.PerChip {
				fmt.Fprintf(os.Stderr, "  chip %d (%s): jobs=%d mean-util=%.1f%% peak-mbox=%.0f shard %.2f MB results %.2f MB\n",
					cr.Chip, cr.Master, cr.Collected, 100*cr.MeanUtilization,
					cr.PeakMailboxDepth, float64(cr.ShardBytes)/1e6, float64(cr.ResultBytes)/1e6)
			}
		}
		if f := rep.Faults; f != nil {
			fmt.Fprintf(os.Stderr,
				"faults (%d slaves): injected kills=%d stalls=%d drops=%d delays=%d corruptions=%d; "+
					"dead=%v timeouts=%d retries=%d reassigned=%d corrupt-detected=%d duplicates=%d lost=%d\n",
				n, f.Injected.CoresKilled, f.Injected.CoresStalled, f.Injected.Dropped,
				f.Injected.Delayed, f.Injected.Corrupted, f.DeadCores, f.Timeouts,
				f.Retries, f.Reassigned, f.DetectedCorrupt, f.DuplicatesDropped,
				f.LostJobs)
			// A lost job is a whole batch under -batch: count pairs.
			if lost := len(pr.Pairs) - rep.Collected; lost > 0 {
				fmt.Fprintf(os.Stderr, "warning: degraded completion, %d of %d pairs lost\n",
					lost, len(pr.Pairs))
			}
		}
	}
	if err != nil {
		fatal(err)
	}
	rec, reg, scores, lastRep := last.rec, last.reg, last.scores, last.rep
	// Host-side pair-store effectiveness: across a sweep every run after
	// the first replays memoized results, so hits/misses show how much
	// native TM-align work the store saved this invocation.
	ps := store.StatsSnapshot()
	fmt.Fprintf(os.Stderr, "pairstore: %d hits / %d misses (%.1f%% hit rate), %d entries resident\n",
		ps.Hits, ps.Misses, 100*ps.HitRate, ps.Entries)
	if *csv {
		fmt.Print(tb.CSV())
	} else {
		fmt.Print(tb.String())
	}
	if *util && rec != nil {
		fmt.Println("\nper-core utilization (last run):")
		fmt.Print(rec.UtilizationTable(40))
	}
	if *heatmap {
		if lastRep.Metrics != nil && lastRep.Metrics.LinkHeatmap != "" {
			fmt.Println("\nmesh link heatmap (last run):")
			fmt.Print(lastRep.Metrics.LinkHeatmap)
		} else {
			fmt.Fprintln(os.Stderr, "note: no link heatmap (no link carried traffic)")
		}
	}
	if *scoresOut != "" {
		err := writeFileWith(*scoresOut, func(w io.Writer) error {
			// pr.Pairs is already in canonical all-vs-all order, so the dump
			// is deterministic regardless of collection order; %.17g round-
			// trips float64 exactly, making files diffable bit-for-bit.
			for _, p := range pr.Pairs {
				res, ok := scores[p]
				if !ok {
					continue // lost under a degraded fault run
				}
				if _, err := fmt.Fprintf(w, "%d %d %.17g %.17g %.17g %d %.17g\n",
					p.I, p.J, res.TM1, res.TM2, res.RMSD, res.AlignedLen, res.SeqID); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d pair scores to %s\n", len(scores), *scoresOut)
	}
	if *metricsOut != "" {
		if err := writeFileWith(*metricsOut, reg.WriteJSON); err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" {
		ct := farm.BuildChromeTrace(rec, reg)
		if err := writeFileWith(*traceOut, ct.Write); err != nil {
			fatal(err)
		}
	}
}

// writeFileWith creates path and streams write into it.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rckalign:", err)
	os.Exit(1)
}

// usageFatal reports a flag-validation problem: one line on stderr and
// exit code 2, the conventional bad-usage status (matching what the
// flag package itself uses for unparseable flags).
func usageFatal(err error) {
	fmt.Fprintln(os.Stderr, "rckalign:", err)
	os.Exit(2)
}
