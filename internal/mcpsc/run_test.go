package mcpsc

import (
	"reflect"
	"slices"
	"testing"

	"rckalign/internal/pairstore"
	"rckalign/internal/sched"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

// allVsAll scores every distinct pair of ds through store.
func allVsAll(t *testing.T, ds *synth.Dataset, methods []Method, store *pairstore.Store) *Scores {
	t.Helper()
	sc, err := Compute(ds, sched.AllVsAll(ds.Len()), methods, store)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// oneVsAll scores query against every other structure of ds.
func oneVsAll(t *testing.T, ds *synth.Dataset, query int, methods []Method) *Scores {
	t.Helper()
	pairs, err := QueryPairs(ds, query)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Compute(ds, pairs, methods, pairstore.New(0))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

func TestEqualPartition(t *testing.T) {
	p := EqualPartition(3, 10)
	if p[0] != 4 || p[1] != 3 || p[2] != 3 {
		t.Errorf("partition = %v", p)
	}
	if sum(p) != 10 {
		t.Error("partition loses slaves")
	}
}

func TestProportionalPartitionFavorsExpensiveMethod(t *testing.T) {
	ds := synth.Small(6, 71)
	methods := []Method{
		TMAlign{Opt: tmalign.FastOptions()}, // by far the most expensive
		GaplessRMSD{},
	}
	p, err := ProportionalPartition(allVsAll(t, ds, methods, pairstore.New(0)), 10)
	if err != nil {
		t.Fatal(err)
	}
	if p[0]+p[1] != 10 {
		t.Fatalf("partition = %v", p)
	}
	if p[0] <= p[1] {
		t.Errorf("TM-align should get more slaves: %v", p)
	}
	if p[1] < 1 {
		t.Errorf("every method needs at least one slave: %v", p)
	}
	// The probe pair is read from the table, so a table without it (a
	// one-vs-all for another query) is an error, not a recomputation.
	if _, err := ProportionalPartition(oneVsAll(t, ds, 1, methods), 10); err == nil {
		t.Error("table without the probe pair accepted")
	}
}

// TestPartitionsRejectImpossibleSlaveCounts pins both strategies on
// slave counts around the one-per-method minimum: they never hand out
// more cores than asked for, and Run — the one place that validates an
// assignment — turns a method without a core into an error under either
// layout.
func TestPartitionsRejectImpossibleSlaveCounts(t *testing.T) {
	sc := allVsAll(t, synth.Small(4, 75), testMethods(), pairstore.New(0))
	nm := len(sc.Methods)
	for _, slaves := range []int{0, nm - 1, nm, 12} {
		prop, err := ProportionalPartition(sc, slaves)
		if err != nil {
			t.Fatal(err)
		}
		equal := EqualPartition(nm, slaves)
		for _, c := range []struct {
			name   string
			sizes  []int
			assign []int
		}{
			{"equal contiguous", equal, Contiguous(equal)},
			{"equal round-robin", equal, RoundRobin(nm, slaves)},
			{"proportional", prop, Contiguous(prop)},
		} {
			if len(c.sizes) != nm || sum(c.sizes) != slaves || len(c.assign) != slaves {
				t.Errorf("%s: %d slaves partitioned %v, laid out %v", c.name, slaves, c.sizes, c.assign)
			}
			r, err := Run(sc, c.assign, RunConfig{})
			if slaves < nm {
				if err == nil {
					t.Errorf("%s: partition %v of %d slaves was farmed", c.name, c.sizes, slaves)
				}
			} else if err != nil || !reflect.DeepEqual(r.Slaves, c.sizes) {
				t.Errorf("%s: partition %v of %d slaves ran on %v, err %v", c.name, c.sizes, slaves, r.Slaves, err)
			}
		}
	}
	if got := EqualPartition(0, 5); len(got) != 0 {
		t.Errorf("EqualPartition(0, 5) = %v", got)
	}
}

func TestContiguous(t *testing.T) {
	if got, want := Contiguous([]int{2, 1, 3}), []int{0, 0, 1, 2, 2, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("Contiguous = %v, want %v", got, want)
	}
	// Empty and negative shares lay out no slave (Run rejects the hole).
	if got, want := Contiguous([]int{1, 0, -2, 1}), []int{0, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("Contiguous = %v, want %v", got, want)
	}
}

func TestRoundRobin(t *testing.T) {
	if got, want := RoundRobin(2, 5), []int{0, 1, 0, 1, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("RoundRobin = %v, want %v", got, want)
	}
	for _, c := range [][2]int{{0, 5}, {3, 0}, {3, -1}} {
		if got := RoundRobin(c[0], c[1]); len(got) != 0 {
			t.Errorf("RoundRobin(%d, %d) = %v", c[0], c[1], got)
		}
	}
}

func TestRunAllVsAll(t *testing.T) {
	ds := synth.Small(6, 72)
	methods := []Method{GaplessRMSD{}, ContactOverlap{}}
	store := pairstore.New(2)
	sc := allVsAll(t, ds, methods, store)
	r, err := Run(sc, Contiguous([]int{3, 3}), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalSeconds <= 0 {
		t.Error("no simulated time")
	}
	if r.Collected != len(methods)*15 || !reflect.DeepEqual(r.Slaves, []int{3, 3}) {
		t.Errorf("collected %d results on partition %v", r.Collected, r.Slaves)
	}
	for m, method := range methods {
		vals := sc.Values(m)
		if len(vals) != 15 {
			t.Fatalf("%s scored %d pairs", method.Name(), len(vals))
		}
		for k, v := range vals {
			if v < 0 || v > 1.000001 {
				t.Errorf("%s score of %v out of range: %v", method.Name(), sc.Pairs[k], v)
			}
		}
		if r.BusySeconds[m] <= 0 {
			t.Errorf("%s recorded no busy time", method.Name())
		}
		// Family structure must be visible to every method: fa pairs
		// (0,1,2) out-score cross-family pairs.
		at := func(i, j int) float64 { return vals[slices.Index(sc.Pairs, sched.Pair{I: i, J: j})] }
		if at(0, 1) <= at(0, 3) || at(1, 2) <= at(2, 4) {
			t.Errorf("%s does not separate families: %v", method.Name(), vals)
		}
	}

	// The pair store moves host time only: the table computed again
	// through the now warm store is all hits and replays to the same
	// report.
	cold := store.Stats()
	if cold.Misses != int64(len(methods)*15) {
		t.Errorf("cold store stats %+v, want one miss per (method, pair)", cold)
	}
	warmTable := allVsAll(t, ds, methods, store)
	if warm := store.Stats(); warm.Misses != cold.Misses || warm.Hits <= cold.Hits {
		t.Errorf("warm store stats %+v after cold %+v, want hits only", warm, cold)
	}
	rw, err := Run(warmTable, Contiguous([]int{3, 3}), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rw, r) || !reflect.DeepEqual(warmTable.byJob, sc.byJob) {
		t.Errorf("warm store changed the run:\n warm %+v\n cold %+v", rw.Report, r.Report)
	}
}

func TestRunAllVsAllValidation(t *testing.T) {
	ds := synth.Small(4, 73)
	pairs := sched.AllVsAll(ds.Len())
	if _, err := Compute(ds, pairs, nil, pairstore.New(0)); err == nil {
		t.Error("no methods accepted")
	}
	if _, err := Compute(ds, nil, []Method{GaplessRMSD{}}, pairstore.New(0)); err == nil {
		t.Error("no pairs accepted")
	}
	sc := allVsAll(t, ds, []Method{GaplessRMSD{}, ContactOverlap{}}, pairstore.New(0))
	for name, sizes := range map[string][]int{
		"partition/method mismatch": {2, 1, 1},
		"short partition":           {4},
		"zero-slave partition":      {2, 0},
		"oversized partition":       {98, 1},
	} {
		if _, err := Run(sc, Contiguous(sizes), RunConfig{}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := Run(sc, []int{0, -1}, RunConfig{}); err == nil {
		t.Error("negative method index accepted")
	}
}

func TestProportionalBeatsEqualOnSkewedMethods(t *testing.T) {
	// TM-align costs orders of magnitude more than contact overlap;
	// giving the methods equal cores starves TM-align. The proportional
	// partition should finish sooner.
	ds := synth.Small(6, 74)
	sc := allVsAll(t, ds, []Method{TMAlign{Opt: tmalign.FastOptions()}, ContactOverlap{}}, pairstore.New(0))
	equal, err := Run(sc, Contiguous(EqualPartition(2, 8)), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sizes, err := ProportionalPartition(sc, 8)
	if err != nil {
		t.Fatal(err)
	}
	prop, err := Run(sc, Contiguous(sizes), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if prop.TotalSeconds >= equal.TotalSeconds {
		t.Errorf("proportional (%v) should beat equal (%v) on skewed methods",
			prop.TotalSeconds, equal.TotalSeconds)
	}
}

func TestRunOneVsAll(t *testing.T) {
	ds := synth.Small(6, 12)
	methods := []Method{TMAlign{Opt: tmalign.FastOptions()}, GaplessRMSD{}}
	sc := oneVsAll(t, ds, 0, methods)
	r, err := Run(sc, RoundRobin(len(methods), 4), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Pairs) != 5 {
		t.Fatalf("pairs = %v", sc.Pairs)
	}
	if r.TotalSeconds <= 0 {
		t.Error("no simulated time")
	}
	var vectors [][]float64
	for m, method := range methods {
		scores := sc.Values(m)
		if len(scores) != 5 {
			t.Fatalf("%s scores = %v", method.Name(), scores)
		}
		for i, s := range scores {
			if s < 0 || s > 1.000001 {
				t.Errorf("%s score[%d] = %v", method.Name(), i, s)
			}
		}
		vectors = append(vectors, scores)
	}
	ranking := Rank(Consensus(vectors))
	if len(ranking) != 5 {
		t.Fatal("consensus missing")
	}
	// Query fa01 (index 0): family members fa02, fa03 (dataset indices
	// 1, 2) must rank above the fb structures.
	top2 := map[int]bool{sc.Pairs[ranking[0]].J: true, sc.Pairs[ranking[1]].J: true}
	if !top2[1] || !top2[2] {
		t.Errorf("family members not ranked top: %v (per-method %v)", ranking, vectors)
	}
	if !reflect.DeepEqual(r.Slaves, []int{2, 2}) {
		t.Errorf("slave partition: %v", r.Slaves)
	}
}

func TestRunOneVsAllValidation(t *testing.T) {
	ds := synth.Small(4, 13)
	methods := testMethods()
	for _, query := range []int{-1, ds.Len()} {
		if _, err := QueryPairs(ds, query); err == nil {
			t.Errorf("query %d accepted", query)
		}
	}
	pairs, err := QueryPairs(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compute(ds, pairs, nil, pairstore.New(0)); err == nil {
		t.Error("no methods accepted")
	}
	sc := oneVsAll(t, ds, 0, methods)
	if _, err := Run(sc, RoundRobin(len(methods), 2), RunConfig{}); err == nil {
		t.Error("fewer slaves than methods accepted")
	}
	if _, err := Run(sc, RoundRobin(len(methods), 99), RunConfig{}); err == nil {
		t.Error("too many slaves accepted")
	}
}

func TestRunOneVsAllMoreSlavesFaster(t *testing.T) {
	sc := oneVsAll(t, synth.Small(6, 14), 0, []Method{GaplessRMSD{}, ContactOverlap{}})
	slow, err := Run(sc, RoundRobin(2, 2), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(sc, RoundRobin(2, 8), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if fast.TotalSeconds >= slow.TotalSeconds {
		t.Errorf("8 slaves (%v) not faster than 2 (%v)", fast.TotalSeconds, slow.TotalSeconds)
	}
}

// TestOneVsAllIsRowOfAllVsAll is the one-body property: a one-vs-all
// for query 0 is, per method and bit for bit, row 0 of the all-vs-all
// matrix on the same dataset and methods — the (0, j) pairs, which
// sched.AllVsAll lists first.
func TestOneVsAllIsRowOfAllVsAll(t *testing.T) {
	ds := synth.Small(6, 76)
	methods := testMethods()
	all := allVsAll(t, ds, methods, pairstore.New(0))
	one := oneVsAll(t, ds, 0, methods)
	if !reflect.DeepEqual(one.Pairs, all.Pairs[:ds.Len()-1]) {
		t.Fatalf("query pairs %v are not the head of %v", one.Pairs, all.Pairs)
	}
	for m, method := range methods {
		if got, want := one.Values(m), all.Values(m)[:ds.Len()-1]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: one-vs-all %v, all-vs-all row 0 %v", method.Name(), got, want)
		}
	}
}

// TestSameNamedMethodsStayApart: results are indexed by method position,
// so two TMAlign values with different Options — one Name() — keep two
// score vectors (and two sets of store entries) instead of overwriting
// one.
func TestSameNamedMethodsStayApart(t *testing.T) {
	ds := synth.Small(6, 77)
	methods := []Method{TMAlign{Opt: tmalign.FastOptions()}, TMAlign{Opt: tmalign.DefaultOptions()}}
	store := pairstore.New(0)
	sc := allVsAll(t, ds, methods, store)
	if st := store.Stats(); st.Misses != int64(2*len(sc.Pairs)) {
		t.Errorf("store stats %+v, want %d misses", st, 2*len(sc.Pairs))
	}
	if reflect.DeepEqual(sc.Values(0), sc.Values(1)) {
		t.Errorf("fast and default TM-align share one score vector: %v", sc.Values(0))
	}
	r, err := Run(sc, Contiguous([]int{2, 2}), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r.BusySeconds[0] <= 0 || r.BusySeconds[1] <= r.BusySeconds[0] {
		t.Errorf("busy seconds %v, want the default options to cost more than the fast ones", r.BusySeconds)
	}
}
