package core

import (
	"math/rand"
	"path/filepath"
	"testing"

	"rckalign/internal/sched"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

// TestKernelMatchesPairCache recomputes a seeded sample of pairs through
// tmalign.Compare and requires every cached field — scores to the last
// bit, the aligned length and all of Ops — to equal testdata/paircache,
// which every simulated table is replayed from. The caches predate the
// kernel's compare-scoped memoization (DESIGN.md §17), so this is the
// in-tree form of rckbench's exactness gate: a kernel change that moves
// a last bit or an op count fails here first, with the score-diff report
// of the sample (scorediff_test.go). After an intended move, regenerate
// the caches with rckalign -cache and diff them whole with -scorediff.
func TestKernelMatchesPairCache(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sample := func(pairs []sched.Pair, n int) []sched.Pair {
		rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
		return pairs[:n]
	}
	check := func(ds *synth.Dataset, ref *PairResults, what string, pairs []sched.Pair) {
		want, got := scoreSet{pairs: pairs, ops: true}, scoreSet{pairs: pairs, ops: true}
		for _, p := range pairs {
			want.results = append(want.results, ref.Get(p))
			got.results = append(got.results, tmalign.Compare(ds.Structures[p.I], ds.Structures[p.J], tmalign.DefaultOptions()))
		}
		if d := diffScores(ds.Name+" "+what+" sample, pair cache -> recompute", want, got); len(d.moved) > 0 {
			t.Error(d)
		}
	}
	load := func(ds *synth.Dataset) *PairResults {
		ref, err := LoadPairResults(ds, filepath.Join("..", "..", "testdata", "paircache", ds.Name+".gob"))
		if err != nil {
			t.Fatal(err)
		}
		return ref
	}

	ck := synth.CK34()
	check(ck, load(ck), "all-vs-all", sample(sched.AllVsAll(ck.Len()), 32))

	rs := synth.RS119()
	ref := load(rs)
	survivors, _ := PrunePairs(rs, 0.5)
	check(rs, ref, "survivor", sample(survivors, 8))
	var low []sched.Pair
	for k, p := range ref.Pairs {
		if ref.Results[k].TM() < 0.25 {
			low = append(low, p)
		}
	}
	check(rs, ref, "low-TM", sample(low, 4))
}
