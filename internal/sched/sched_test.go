package sched

import (
	"errors"
	"sort"
	"testing"
)

// mustApply is the test shorthand for orderings that cannot fail.
func mustApply(t *testing.T, pairs []Pair, o Order, cost func(Pair) float64, seed int64) []Pair {
	t.Helper()
	out, err := Apply(pairs, o, cost, seed)
	if err != nil {
		t.Fatalf("Apply(%s): %v", o, err)
	}
	return out
}

func TestApplyNilCostTypedError(t *testing.T) {
	for _, o := range []Order{LPT, SPT} {
		if _, err := Apply(AllVsAll(4), o, nil, 0); !errors.Is(err, ErrNilCost) {
			t.Errorf("Apply(%s, nil cost) err = %v, want ErrNilCost", o, err)
		}
	}
	// FIFO and Random never consult cost.
	if _, err := Apply(AllVsAll(4), FIFO, nil, 0); err != nil {
		t.Errorf("Apply(FIFO, nil cost) err = %v", err)
	}
	if _, err := Apply(AllVsAll(4), Random, nil, 7); err != nil {
		t.Errorf("Apply(Random, nil cost) err = %v", err)
	}
}

func TestApplyEvaluatesCostOncePerPair(t *testing.T) {
	pairs := AllVsAll(20) // 190 pairs: a comparator-driven cost would be called ~O(P log P) times
	calls := 0
	cost := func(p Pair) float64 {
		calls++
		return float64(p.I*100 + p.J)
	}
	mustApply(t, pairs, LPT, cost, 0)
	if calls != len(pairs) {
		t.Errorf("LPT evaluated cost %d times for %d pairs, want exactly one call per pair", calls, len(pairs))
	}
	calls = 0
	mustApply(t, pairs, SPT, cost, 0)
	if calls != len(pairs) {
		t.Errorf("SPT evaluated cost %d times for %d pairs, want exactly one call per pair", calls, len(pairs))
	}
}

func TestAllVsAll(t *testing.T) {
	pairs := AllVsAll(5)
	if len(pairs) != 10 {
		t.Fatalf("5 structures -> %d pairs, want 10", len(pairs))
	}
	seen := map[Pair]bool{}
	for _, p := range pairs {
		if p.I >= p.J {
			t.Errorf("pair %v not ordered", p)
		}
		if p.I < 0 || p.J >= 5 {
			t.Errorf("pair %v out of range", p)
		}
		if seen[p] {
			t.Errorf("duplicate pair %v", p)
		}
		seen[p] = true
	}
	if AllVsAll(1) != nil || AllVsAll(0) != nil {
		t.Error("degenerate sizes should yield nil")
	}
	// Paper's dataset sizes.
	if len(AllVsAll(34)) != 561 {
		t.Errorf("CK34 pairs = %d, want 561", len(AllVsAll(34)))
	}
	if len(AllVsAll(119)) != 7021 {
		t.Errorf("RS119 pairs = %d, want 7021", len(AllVsAll(119)))
	}
}

func TestApplyFIFOKeepsOrder(t *testing.T) {
	in := AllVsAll(6)
	out := mustApply(t, in, FIFO, nil, 0)
	for i := range in {
		if out[i] != in[i] {
			t.Fatal("FIFO reordered jobs")
		}
	}
	// Must be a copy, not an alias.
	out[0] = Pair{9, 9}
	if in[0] == out[0] {
		t.Error("Apply returned an alias")
	}
}

func TestApplyLPT(t *testing.T) {
	lengths := []int{10, 100, 50, 20}
	pairs := AllVsAll(4)
	cost := LengthProductCost(lengths)
	out := mustApply(t, pairs, LPT, cost, 0)
	for i := 1; i < len(out); i++ {
		if cost(out[i-1]) < cost(out[i]) {
			t.Fatalf("LPT not descending at %d: %v", i, out)
		}
	}
	// Largest job first: pair {1,2} with cost 5000.
	if out[0] != (Pair{1, 2}) {
		t.Errorf("first LPT job = %v", out[0])
	}
}

func TestApplySPT(t *testing.T) {
	lengths := []int{10, 100, 50, 20}
	cost := LengthProductCost(lengths)
	out := mustApply(t, AllVsAll(4), SPT, cost, 0)
	for i := 1; i < len(out); i++ {
		if cost(out[i-1]) > cost(out[i]) {
			t.Fatalf("SPT not ascending: %v", out)
		}
	}
}

func TestApplyRandomDeterministicPermutation(t *testing.T) {
	in := AllVsAll(8)
	a := mustApply(t, in, Random, nil, 42)
	b := mustApply(t, in, Random, nil, 42)
	c := mustApply(t, in, Random, nil, 43)
	sameAsA := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Random not deterministic for equal seeds")
		}
		if a[i] != c[i] {
			sameAsA = false
		}
	}
	if sameAsA {
		t.Error("different seeds gave identical shuffles")
	}
	// Must be a permutation.
	key := func(p Pair) int { return p.I*1000 + p.J }
	ka := make([]int, len(a))
	ki := make([]int, len(in))
	for i := range a {
		ka[i] = key(a[i])
		ki[i] = key(in[i])
	}
	sort.Ints(ka)
	sort.Ints(ki)
	for i := range ka {
		if ka[i] != ki[i] {
			t.Fatal("Random lost or duplicated jobs")
		}
	}
}

func TestOrderString(t *testing.T) {
	for o, want := range map[Order]string{FIFO: "FIFO", LPT: "LPT", SPT: "SPT", Random: "Random", Order(99): "unknown"} {
		if o.String() != want {
			t.Errorf("%d.String() = %s", o, o.String())
		}
	}
}
