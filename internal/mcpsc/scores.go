package mcpsc

import (
	"fmt"

	"rckalign/internal/pairstore"
	"rckalign/internal/sched"
	"rckalign/internal/synth"
)

// Scores is the multi-criteria table: every method's verdict on every
// pair of one pair list, computed once and consumed many times (Run,
// Consensus, Rank). Rows are indexed by method position, never by
// Name(): two TMAlign values with different Options share a name.
type Scores struct {
	Dataset *synth.Dataset
	Methods []Method
	Pairs   []sched.Pair
	// byJob[m*len(Pairs)+k] is Methods[m]'s score of Pairs[k]: the farm's
	// job id layout, so replaying a job is one index.
	byJob []Score
}

// QueryPairs is the one-vs-all pair list: the query against every other
// structure of the dataset, query first (Pair.J is the target).
func QueryPairs(ds *synth.Dataset, query int) ([]sched.Pair, error) {
	if query < 0 || query >= ds.Len() {
		return nil, fmt.Errorf("mcpsc: query %d outside dataset", query)
	}
	pairs := make([]sched.Pair, 0, ds.Len()-1)
	for t := 0; t < ds.Len(); t++ {
		if t != query {
			pairs = append(pairs, sched.Pair{I: query, J: t})
		}
	}
	return pairs, nil
}

// Compute evaluates every (method, pair) natively, at most once per
// (method parameters, pair) across every table sharing the store, on the
// store's host worker pool. No Method.Compare runs anywhere else.
func Compute(ds *synth.Dataset, pairs []sched.Pair, methods []Method, store *pairstore.Store) (*Scores, error) {
	if len(methods) == 0 || len(pairs) == 0 {
		return nil, fmt.Errorf("mcpsc: nothing to score: %d methods, %d pairs", len(methods), len(pairs))
	}
	np := len(pairs)
	keys := make([]pairstore.Key, 0, len(methods)*np)
	for _, m := range methods {
		// The %+v carries the method's parameter fields, so same-named
		// methods with different parameters memoize apart.
		kernel := fmt.Sprintf("mcpsc/%s/%+v", m.Name(), m)
		for _, p := range pairs {
			keys = append(keys, pairstore.Key{Dataset: ds.Name, Kernel: kernel,
				A: ds.Structures[p.I].ID, B: ds.Structures[p.J].ID})
		}
	}
	compute := func(i int) any {
		p := pairs[i%np]
		return methods[i/np].Compare(ds.Structures[p.I], ds.Structures[p.J])
	}
	store.Prefetch(keys, compute)
	sc := &Scores{Dataset: ds, Methods: methods, Pairs: pairs, byJob: make([]Score, len(keys))}
	for i := range keys {
		sc.byJob[i] = store.Get(keys[i], func() any { return compute(i) }).(Score)
	}
	return sc, nil
}

// Row returns method m's scores, aligned with Pairs.
func (sc *Scores) Row(m int) []Score {
	np := len(sc.Pairs)
	return sc.byJob[m*np : (m+1)*np]
}

// Values returns method m's similarity values, aligned with Pairs — for
// a QueryPairs table, the one-vs-all vector Consensus and Rank take.
func (sc *Scores) Values(m int) []float64 {
	out := make([]float64, len(sc.Pairs))
	for k, s := range sc.Row(m) {
		out[k] = s.Value
	}
	return out
}
