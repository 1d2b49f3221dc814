package main

import (
	"fmt"
	"math/rand"

	"rckalign/internal/core"
	"rckalign/internal/costmodel"
	"rckalign/internal/pairstore"
	"rckalign/internal/prune"
	"rckalign/internal/sched"
	"rckalign/internal/server"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

// replaySlaves is the slave count of every single-chip replay: the
// SCC's 47 slave cores beside one master.
const replaySlaves = 47

// pruneThreshold is the search workload's similarity threshold.
const pruneThreshold = 0.5

// computePairs evaluates pairs through a fresh W-worker pair store. With
// a tracer it makes the calls core.ComputePairsShared makes — keys, then
// Store.Prefetch with a closure around tmalign.Compare — so each compare
// gets a span, and then lets ComputePairsShared assemble the results
// from the now resident store.
func computePairs(tr *tracer, parent int, ds *synth.Dataset, store *pairstore.Store, pairs []sched.Pair) *core.PairResults {
	opt := tmalign.DefaultOptions()
	if tr == nil {
		return core.ComputePairsShared(ds, opt, store, pairs)
	}
	sc := tr.begin("core.compute", parent, "main")
	keys := core.PairKeysFor(ds, opt, pairs)
	sp := tr.begin("pairstore.prefetch", sc, "main")
	store.Prefetch(keys, func(k int) any {
		s := tr.begin("tmalign.compare", sp, "")
		r := tmalign.Compare(ds.Structures[pairs[k].I], ds.Structures[pairs[k].J], opt)
		tr.end(s)
		return r
	})
	tr.end(sp)
	pr := core.ComputePairsShared(ds, opt, store, pairs)
	tr.end(sc)
	return pr
}

// storeLayer fills the pairstore metrics of a compute workload from the
// traced passes' spans and the last pass's store.
func storeLayer(m map[string]float64, tr *tracer, passes, workers int, snap pairstore.StatsSnapshot) {
	busy, wall := sum(tr.seconds("tmalign.compare")), sum(tr.seconds("pairstore.prefetch"))
	m["pairstore.prefetch_wall_s"] = wall / float64(passes)
	m["pairstore.self_s"] = (wall - busy/float64(workers)) / float64(passes)
	m["pairstore.worker_utilisation"] = busy / (wall * float64(workers))
	storeStatsLayer(m, snap)
}

func storeStatsLayer(m map[string]float64, snap pairstore.StatsSnapshot) {
	m["pairstore.hits"] = float64(snap.Hits)
	m["pairstore.misses"] = float64(snap.Misses)
	m["pairstore.entries"] = float64(snap.Entries)
}

func opsLayer(m map[string]float64, ops costmodel.Counter) {
	m["tmalign.ops_dp_cells"] = float64(ops.DPCells)
	m["tmalign.ops_score_evals"] = float64(ops.ScoreEvals)
	m["tmalign.ops_kabsch_points"] = float64(ops.KabschPoints)
	m["tmalign.ops_rotation_ops"] = float64(ops.RotationOps)
}

// samplePairs draws n pairs without replacement, seeded.
func samplePairs(pairs []sched.Pair, n int, seed int64) []sched.Pair {
	idx := rand.New(rand.NewSource(seed)).Perm(len(pairs))
	if n > len(idx) {
		n = len(idx)
	}
	out := make([]sched.Pair, n)
	for i := range out {
		out[i] = pairs[idx[i]]
	}
	return out
}

// allPairs is allpairs_ck34_cold: an uncached CK34 all-vs-all on W host
// workers through a fresh pair store, then one simulated 47-slave run
// over the results. Operation: one pair compared.
type allPairs struct {
	cfg      runConfig
	ds       *synth.Dataset
	golden   map[sched.Pair]string
	expected *expectedFile

	pr    *core.PairResults
	run   core.RunResult
	store pairstore.StatsSnapshot
}

func (w *allPairs) Setup() (err error) {
	w.ds = w.cfg.size.ck()
	if w.golden, err = goldenLines(w.cfg, w.ds); err != nil {
		return err
	}
	w.expected, err = loadExpected(w.cfg)
	return err
}

func (w *allPairs) Pass(tr *tracer) (int, error) {
	root := tr.begin("allpairs_ck34_cold", -1, "main")
	defer tr.end(root)
	store := pairstore.New(w.cfg.workers)
	w.pr = computePairs(tr, root, w.ds, store, sched.AllVsAll(w.ds.Len()))
	s := tr.begin("core.run", root, "main")
	var err error
	w.run, err = core.Run(w.pr, replaySlaves, core.DefaultConfig())
	tr.end(s)
	w.store = store.StatsSnapshot()
	return len(w.pr.Pairs), err
}

func (w *allPairs) Check() (int, error) {
	failed := 0
	var first error
	for k, p := range w.pr.Pairs {
		if got := server.ScoreLine(p.I, p.J, w.pr.Results[k]); got != w.golden[p] {
			failed++
			if first == nil {
				first = fmt.Errorf("pair %d: got %q, want %q", k, got, w.golden[p])
			}
		}
	}
	if w.expected != nil && w.run.TotalSeconds != w.expected.CK34Run47Seconds && first == nil {
		failed++
		first = fmt.Errorf("replay makespan: got %v s, want %v s", w.run.TotalSeconds, w.expected.CK34Run47Seconds)
	}
	if w.store.Misses != int64(len(w.pr.Pairs)) && first == nil {
		first = fmt.Errorf("pair store misses: got %d, want %d", w.store.Misses, len(w.pr.Pairs))
	}
	return failed, first
}

func (w *allPairs) Teardown() {}

func (w *allPairs) Layer(m map[string]float64, tr *tracer, passes int) error {
	storeLayer(m, tr, passes, w.cfg.workers, w.store)
	opsLayer(m, w.pr.TotalOps())
	m["core.run47_host_ms"] = median(tr.seconds("core.run")) * 1e3
	kernelProbes(m, w.ds, samplePairs(w.pr.Pairs, w.cfg.size.sampleCK, w.cfg.seed))
	storeHitProbe(m, w.cfg.size.probeIters)
	return datasetProbes(m, w.ds, w.cfg.size.ck)
}

// search is search_rs119_pruned: the thresholded-search shape. The
// serial prune pre-filter decides all RS119 pairs, then the survivors —
// long chains of similar length — are compared on W workers. Operation:
// one candidate pair decided.
type search struct {
	cfg      runConfig
	ds       *synth.Dataset
	ref      *core.PairResults
	expected *expectedFile

	kept   []sched.Pair
	report *prune.Report
	pr     *core.PairResults
	store  pairstore.StatsSnapshot
	missed int
}

func (w *search) Setup() (err error) {
	w.ds = w.cfg.size.rs()
	if w.ref, err = referenceResults(w.cfg, w.ds); err != nil {
		return err
	}
	w.expected, err = loadExpected(w.cfg)
	return err
}

func (w *search) Pass(tr *tracer) (int, error) {
	root := tr.begin("search_rs119_pruned", -1, "main")
	defer tr.end(root)
	s := tr.begin("core.prune", root, "main")
	w.kept, w.report = core.PrunePairs(w.ds, pruneThreshold)
	tr.end(s)
	store := pairstore.New(w.cfg.workers)
	w.pr = computePairs(tr, root, w.ds, store, w.kept)
	w.store = store.StatsSnapshot()
	return w.report.Total, nil
}

func (w *search) Check() (int, error) {
	failed := 0
	var first error
	fail := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	kept := make(map[sched.Pair]bool, len(w.kept))
	for k, p := range w.pr.Pairs {
		kept[p] = true
		got, want := w.pr.Results[k], w.ref.Get(p)
		if got.TM1 != want.TM1 || got.TM2 != want.TM2 || got.RMSD != want.RMSD || got.AlignedLen != want.AlignedLen {
			fail(fmt.Errorf("survivor %v: got TM1=%v TM2=%v RMSD=%v aligned=%d, want TM1=%v TM2=%v RMSD=%v aligned=%d",
				p, got.TM1, got.TM2, got.RMSD, got.AlignedLen, want.TM1, want.TM2, want.RMSD, want.AlignedLen))
		}
	}
	known := map[sched.Pair]bool{}
	if w.expected != nil {
		for _, p := range w.expected.KnownMissed {
			known[p] = true
		}
	}
	w.missed = 0
	for k, p := range w.ref.Pairs {
		if !kept[p] && w.ref.Results[k].TM() >= pruneThreshold {
			w.missed++
			if w.expected != nil && !known[p] {
				fail(fmt.Errorf("pair %v pruned at T=%v although its mean TM is %v", p, pruneThreshold, w.ref.Results[k].TM()))
			}
		}
	}
	return failed, first
}

func (w *search) Teardown() {}

func (w *search) Layer(m map[string]float64, tr *tracer, passes int) error {
	storeLayer(m, tr, passes, w.cfg.workers, w.store)
	opsLayer(m, w.pr.TotalOps())
	busy := median(tr.seconds("core.prune"))
	m["prune.busy_s"] = busy
	m["prune.wall_share"] = busy / median(tr.seconds("search_rs119_pruned"))
	m["prune.skip_fraction"] = w.report.SkipFraction()
	m["prune.survivors"] = float64(len(w.kept))
	m["prune.missed"] = float64(w.missed)
	pruneProbes(m, w.ds, w.cfg.seed, w.cfg.size.probeIters)
	kernelProbes(m, w.ds, samplePairs(w.kept, w.cfg.size.sampleRS, w.cfg.seed))
	storeHitProbe(m, w.cfg.size.probeIters)
	return datasetProbes(m, w.ds, w.cfg.size.rs)
}
