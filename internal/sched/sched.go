// Package sched generates and orders pairwise-comparison job lists for
// the one-vs-all and all-vs-all PSC tasks. The paper uses plain FIFO
// generation order and names load balancing as future work; LPT (longest
// processing time first) and random shuffling are provided for the
// scheduling ablation.
package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// ErrNilCost reports an ordering policy that needs a cost estimator
// (LPT, SPT) invoked without one.
var ErrNilCost = errors.New("sched: ordering needs a cost estimator")

// Pair indexes two structures in a dataset (I < J for all-vs-all).
type Pair struct{ I, J int }

// AllVsAll returns all n*(n-1)/2 unordered distinct pairs in row-major
// (FIFO) order — the order the paper's master generates jobs in.
func AllVsAll(n int) []Pair {
	if n < 2 {
		return nil
	}
	pairs := make([]Pair, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, Pair{i, j})
		}
	}
	return pairs
}

// Order selects a job ordering policy.
type Order int

const (
	// FIFO keeps generation order (the paper's behaviour).
	FIFO Order = iota
	// LPT sorts jobs longest-first, the classic makespan heuristic the
	// paper suggests investigating.
	LPT
	// SPT sorts jobs shortest-first (anti-optimal tail; for contrast).
	SPT
	// Random shuffles jobs deterministically by seed.
	Random
)

// String names the order.
func (o Order) String() string {
	switch o {
	case FIFO:
		return "FIFO"
	case LPT:
		return "LPT"
	case SPT:
		return "SPT"
	case Random:
		return "Random"
	}
	return "unknown"
}

// Apply returns a new slice with pairs arranged according to the policy.
// cost estimates a job's duration (used by LPT/SPT; may be nil for FIFO
// and Random). seed drives Random. LPT/SPT evaluate cost exactly once
// per pair and sort on the precomputed keys; a missing estimator is
// reported as ErrNilCost.
func Apply(pairs []Pair, o Order, cost func(Pair) float64, seed int64) ([]Pair, error) {
	out := append([]Pair(nil), pairs...)
	switch o {
	case FIFO:
	case LPT, SPT:
		if cost == nil {
			return nil, fmt.Errorf("%w: %s over %d pairs", ErrNilCost, o, len(out))
		}
		keys := make([]float64, len(out))
		for i, p := range out {
			keys[i] = cost(p)
		}
		sortByKeys(out, keys, o == LPT)
	case Random:
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out, nil
}

// sortByKeys stably reorders pairs by their precomputed keys,
// descending when desc (LPT) and ascending otherwise (SPT).
func sortByKeys(pairs []Pair, keys []float64, desc bool) {
	idx := make([]int, len(pairs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if desc {
			return keys[idx[a]] > keys[idx[b]]
		}
		return keys[idx[a]] < keys[idx[b]]
	})
	sorted := make([]Pair, len(pairs))
	for i, j := range idx {
		sorted[i] = pairs[j]
	}
	copy(pairs, sorted)
}

// LengthProductCost returns a cost estimator proportional to L_i * L_j,
// the dominant term of TM-align's complexity, given the chain lengths.
func LengthProductCost(lengths []int) func(Pair) float64 {
	return func(p Pair) float64 {
		return float64(lengths[p.I]) * float64(lengths[p.J])
	}
}
