package main

import (
	"bytes"
	"runtime"
	"sync"
	"time"

	"rckalign/internal/batcher"
	"rckalign/internal/costmodel"
	"rckalign/internal/geom"
	"rckalign/internal/kernel"
	"rckalign/internal/pairstore"
	"rckalign/internal/pdb"
	"rckalign/internal/prune"
	"rckalign/internal/sched"
	"rckalign/internal/ss"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
	"rckalign/internal/tmscore"
)

// The probes call one public function of one layer directly, outside
// any pass, so a layer's unit cost can be read beside the end-to-end
// numbers it should move. They run only in the traced run.

// timeMean returns the mean nanoseconds of n back-to-back calls of fn.
func timeMean(n int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// timeMin returns the fastest of reps timed calls of fn in nanoseconds,
// after one untimed call that warms caches and grows scratch buffers:
// the unit cost of deterministic code, with interference filtered out.
func timeMin(reps int, fn func()) float64 {
	fn()
	best := 0.0
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fn()
		if ns := float64(time.Since(t0).Nanoseconds()); i == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// kernelProbes times tmalign.Compare and its stages on a sample of the
// workload's own pairs: whole comparisons (latency and allocations),
// then each stage's public entry point on the same chains, in ns per
// costmodel.Counter unit (the rotation search minus the superpositions
// and rotations it contains, so the units do not overlap). Unit cost times the sample's exact counts over
// the sample's compare time gives the host's stage profile.
func kernelProbes(m map[string]float64, ds *synth.Dataset, sample []sched.Pair) {
	opt := tmalign.DefaultOptions()
	results := make([]*tmalign.Result, len(sample))
	compareMS := make([]float64, len(sample))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var busyNS float64
	var ops costmodel.Counter
	for k, p := range sample {
		t0 := time.Now()
		results[k] = tmalign.Compare(ds.Structures[p.I], ds.Structures[p.J], opt)
		d := time.Since(t0)
		compareMS[k] = d.Seconds() * 1e3
		busyNS += float64(d.Nanoseconds())
		ops.Add(results[k].Ops)
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(sample))
	m["tmalign.compare_ms_p50"] = median(compareMS)
	m["tmalign.compare_ms_p95"] = quantile(compareMS, 0.95)
	m["tmalign.compare_allocs_per_pair"] = float64(m1.Mallocs-m0.Mallocs) / n
	m["tmalign.compare_alloc_kb_per_pair"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / n

	w := kernel.Get()
	defer kernel.Put(w)
	var ssNS, ssN, dpNS, dpN, searchNS, searchN, kabschNS, kabschN, applyNS, applyN float64
	for k, p := range sample {
		x, y := ds.Structures[p.I].CAs(), ds.Structures[p.J].CAs()
		res := results[k]

		ssNS += timeMin(3, func() { ss.Assign(x); ss.Assign(y) })
		ssN += float64(len(x) + len(y))

		// The DP of the refinement loop: a dense score matrix built from
		// the distances under the final superposition.
		xt := make([]geom.Vec3, len(x))
		applyT := timeMin(5, func() {
			for r := 0; r < 16; r++ {
				res.Transform.ApplyAll(xt, x)
			}
		}) / 16
		applyNS += applyT
		applyN += float64(len(x))
		sp := tmscore.SearchParams(len(x), len(y))
		mat := make([]float64, len(x)*len(y))
		for i := range x {
			for j := range y {
				mat[i*len(y)+j] = 1 / (1 + xt[i].Dist2(y[j])/(sp.D0*sp.D0))
			}
		}
		invmap := make([]int, len(y))
		dpNS += timeMin(3, func() { w.Aligner().AlignMatrix(len(x), len(y), mat, -0.6, invmap, nil) })
		dpN += float64(len(x) * len(y))

		// The rotation search and the superposition on the pairs the
		// comparison aligned.
		var xa, ya []geom.Vec3
		for j, i := range res.Invmap {
			if i >= 0 {
				xa, ya = append(xa, x[i]), append(ya, y[j])
			}
		}
		if len(xa) < 3 {
			continue
		}
		var c costmodel.Counter
		sp.SearchWS(w, xa, ya, opt.SimplifyStep, &c)
		searchT := timeMin(3, func() { sp.SearchWS(w, xa, ya, opt.SimplifyStep, nil) })
		// Superpose at the search's own mean problem size: most solves
		// are on short seed fragments, where the fixed eigen-solve
		// dominates the per-point sums.
		frag := len(xa)
		if mean := int(c.KabschPoints / c.KabschCalls); mean >= 3 && mean < frag {
			frag = mean
		}
		kabschT := timeMin(5, func() {
			for r := 0; r < 16; r++ {
				geom.Superpose(xa[:frag], ya[:frag])
			}
		}) / 16
		kabschNS += kabschT
		kabschN += float64(frag)
		// The search superposes and rotates inside; what is left after
		// their share, at this pair's own unit costs, is score evaluation.
		searchNS += searchT - kabschT/float64(frag)*float64(c.KabschPoints) - applyT/float64(len(x))*float64(c.RotationOps)
		searchN += float64(c.ScoreEvals)
	}
	unit := func(ns, n float64) float64 {
		if n == 0 {
			return 0
		}
		return ns / n
	}
	m["ss.assign_ns_per_residue"] = unit(ssNS, ssN)
	m["seqalign.dp_ns_per_cell"] = unit(dpNS, dpN)
	m["tmscore.search_ns_per_eval"] = unit(searchNS, searchN)
	m["geom.superpose_ns_per_point"] = unit(kabschNS, kabschN)
	m["geom.apply_ns_per_point"] = unit(applyNS, applyN)

	share := func(unitNS float64, count uint64) float64 { return unitNS * float64(count) / busyNS }
	m["tmalign.stage_share_dp"] = share(m["seqalign.dp_ns_per_cell"], ops.DPCells)
	m["tmalign.stage_share_search"] = share(m["tmscore.search_ns_per_eval"], ops.ScoreEvals)
	m["tmalign.stage_share_kabsch"] = share(m["geom.superpose_ns_per_point"], ops.KabschPoints)
	m["tmalign.stage_share_rotate"] = share(m["geom.apply_ns_per_point"], ops.RotationOps)
	m["tmalign.stage_share_ss"] = share(m["ss.assign_ns_per_residue"], ops.SSAssign)
	m["tmalign.stage_share_other"] = 1 - m["tmalign.stage_share_dp"] - m["tmalign.stage_share_search"] -
		m["tmalign.stage_share_kabsch"] - m["tmalign.stage_share_rotate"] - m["tmalign.stage_share_ss"]
}

// pruneProbes times the pre-filter's two steps: feature extraction per
// structure and the bound per pair, on a seeded sample of pairs.
func pruneProbes(m map[string]float64, ds *synth.Dataset, seed int64, iters int) {
	feats := make([]prune.Features, ds.Len())
	m["prune.extract_us_per_structure"] = timeMin(3, func() {
		for i, s := range ds.Structures {
			feats[i] = prune.Extract(s.CAs(), s.Sequence())
		}
	}) / 1e3 / float64(ds.Len())
	sample := samplePairs(sched.AllVsAll(ds.Len()), iters/4+1, seed)
	f := prune.New(pruneThreshold)
	m["prune.bound_us_per_pair"] = timeMin(1, func() {
		for _, p := range sample {
			f.Bound(&feats[p.I], &feats[p.J])
		}
	}) / 1e3 / float64(len(sample))
}

// storeHitProbe times pairstore.Store.Get on a resident key.
func storeHitProbe(m map[string]float64, iters int) {
	store := pairstore.New(1)
	key := pairstore.Key{Dataset: "probe", Kernel: "probe", A: "a", B: "b"}
	compute := func() any { return 1 }
	store.Get(key, compute)
	m["pairstore.get_hit_ns"] = timeMean(iters*50, func() { store.Get(key, compute) })
}

// batcherProbe times batcher.Submit through a batcher whose run function
// does nothing, with one submitter per worker: the coalescer's own cost,
// MaxWait included whenever a batch does not fill.
func batcherProbe(m map[string]float64, workers, iters int) {
	b, err := batcher.New(batcher.Config{BatchSize: 16, MaxWait: time.Millisecond, Workers: workers},
		func(in []int) ([]int, error) { return in, nil })
	if err != nil {
		panic(err) // the run function is non-nil
	}
	defer b.Close()
	per := make([][]float64, workers)
	var wg sync.WaitGroup
	for s := 0; s < workers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < iters/4+1; i++ {
				t0 := time.Now()
				if _, err := b.Submit(i); err != nil {
					return
				}
				per[s] = append(per[s], time.Since(t0).Seconds()*1e6)
			}
		}(s)
	}
	wg.Wait()
	var all []float64
	for _, p := range per {
		all = append(all, p...)
	}
	m["batcher.submit_us_p50"] = median(all)
}

// datasetProbes times what set-up is made of: generating the workload's
// dataset, and writing and parsing its structures as PDB text.
func datasetProbes(m map[string]float64, ds *synth.Dataset, build func() *synth.Dataset) error {
	m["synth.generate_ms"] = timeMin(3, func() { build() }) / 1e6
	texts := make([][]byte, ds.Len())
	var err error
	m["pdb.write_us_per_structure"] = timeMin(3, func() {
		for i, s := range ds.Structures {
			var buf bytes.Buffer
			if e := pdb.Write(&buf, s); e != nil {
				err = e
			}
			texts[i] = buf.Bytes()
		}
	}) / 1e3 / float64(ds.Len())
	m["pdb.parse_us_per_structure"] = timeMin(3, func() {
		for i, text := range texts {
			if _, e := pdb.Parse(bytes.NewReader(text), ds.Structures[i].ID); e != nil {
				err = e
			}
		}
	}) / 1e3 / float64(ds.Len())
	return err
}
