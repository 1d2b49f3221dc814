package sched

import "sort"

// DefaultTile is the blocked-ordering tile size of every run that
// enables the structure cache, batching or affinity, and the block size
// in which a multi-chip run shards the pair grid.
// Within an off-diagonal tile block every structure is reused by `tile`
// consecutive pairs, so the block's wire traffic shrinks by roughly the
// tile size once the slaves cache structures; 6 comfortably beats the
// 5x input-reduction target while keeping the block count high enough
// to spread across the SCC's 47 slaves on the paper's datasets.
const DefaultTile = 6

// blockKey identifies the tile block a pair falls into: the pair grid
// is cut into tile x tile cells, so pairs of a block draw from at most
// 2*tile distinct structures.
type blockKey struct{ bi, bj int }

// blockOf returns p's block for the given tile size.
func blockOf(p Pair, tile int) blockKey { return blockKey{p.I / tile, p.J / tile} }

// Blocked regroups pairs into cache-friendly tile blocks: the i x j
// pair grid is cut into tile x tile blocks, blocks are emitted in
// row-major order, and within a block the incoming order (FIFO, LPT,
// ...) is preserved. Consecutive jobs then reference at most 2*tile
// distinct structures, which is what makes a bounded slave-side
// structure cache effective. tile < 2 returns the input order
// unchanged. The reordering is a permutation: every pair appears
// exactly once, so results are unaffected.
func Blocked(pairs []Pair, tile int) []Pair {
	out := append([]Pair(nil), pairs...)
	if tile < 2 {
		return out
	}
	keys := make([]blockKey, len(out))
	for i, p := range out {
		keys[i] = blockOf(p, tile)
	}
	idx := make([]int, len(out))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		if ka.bi != kb.bi {
			return ka.bi < kb.bi
		}
		return ka.bj < kb.bj
	})
	sorted := make([]Pair, len(out))
	for i, j := range idx {
		sorted[i] = out[j]
	}
	return sorted
}

// gatherBlocks groups a pair list into its tile blocks, in
// first-appearance order of the Blocked permutation; pairs keep their
// within-block order. tile < 2 degenerates to one block per pair in
// input order — the finest dealing granularity, used both as the
// explicit fine-grained mode and as the fallback when a tile is larger
// than the grid region a shard would get.
func gatherBlocks(pairs []Pair, tile int) [][]Pair {
	if tile < 2 {
		blocks := make([][]Pair, len(pairs))
		for i, p := range pairs {
			blocks[i] = []Pair{p}
		}
		return blocks
	}
	ordered := Blocked(pairs, tile)
	var blocks [][]Pair
	blockAt := map[blockKey]int{}
	for _, p := range ordered {
		k := blockOf(p, tile)
		b, ok := blockAt[k]
		if !ok {
			b = len(blocks)
			blockAt[k] = b
			blocks = append(blocks, nil)
		}
		blocks[b] = append(blocks[b], p)
	}
	return blocks
}

// blockWeights sums each block's cost (pair count when cost is nil).
func blockWeights(blocks [][]Pair, cost func(Pair) float64) []float64 {
	weights := make([]float64, len(blocks))
	for b, ps := range blocks {
		for _, p := range ps {
			if cost != nil {
				weights[b] += cost(p)
			} else {
				weights[b]++
			}
		}
	}
	return weights
}

// dealLPT deals blocks heaviest-first onto the least-loaded of n queues
// (classic LPT bin packing). Equal weights keep first-appearance order
// and load ties break on the lower queue index, so the assignment is
// deterministic. Within a queue, blocks land in assignment
// (heaviest-first) order and pairs keep their within-block order.
func dealLPT(blocks [][]Pair, weights []float64, n int) [][]Pair {
	queues := make([][]Pair, n)
	for q, idxs := range dealIdxLPT(weights, n) {
		for _, b := range idxs {
			queues[q] = append(queues[q], blocks[b]...)
		}
	}
	return queues
}

// dealIdxLPT is dealLPT on block indices: each queue lists the blocks
// it was dealt, in assignment (heaviest-total-first) order, for callers
// that want to reorder a queue's blocks before flattening.
func dealIdxLPT(weights []float64, n int) [][]int {
	queues := make([][]int, n)
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })
	load := make([]float64, n)
	for _, b := range order {
		best := 0
		for q := 1; q < n; q++ {
			if load[q] < load[best] {
				best = q
			}
		}
		queues[best] = append(queues[best], b)
		load[best] += weights[b]
	}
	return queues
}

// blockMaxCosts returns each block's single heaviest pair (1 when cost
// is nil — every pair counts equally).
func blockMaxCosts(blocks [][]Pair, cost func(Pair) float64) []float64 {
	maxes := make([]float64, len(blocks))
	for b, ps := range blocks {
		for _, p := range ps {
			c := 1.0
			if cost != nil {
				c = cost(p)
			}
			if c > maxes[b] {
				maxes[b] = c
			}
		}
	}
	return maxes
}

// AffinityAssign deals the tile blocks of a pair list onto `slaves`
// queues so each block's structures ship to exactly one slave: blocks
// are taken heaviest-first (by summed cost, or pair count when cost is
// nil) and each goes to the least-loaded queue (see dealLPT). With
// fewer blocks than slaves the surplus queues stay empty — affinity
// trades tail balance for wire traffic, which is the right trade in
// the master-bound polling regime the cache targets. tile < 2 deals
// individual pairs instead of blocks (no cache affinity, but the load
// still spreads; it used to pile every job onto queue 0).
func AffinityAssign(pairs []Pair, slaves, tile int, cost func(Pair) float64) [][]Pair {
	if slaves < 1 {
		return nil
	}
	if len(pairs) == 0 {
		return make([][]Pair, slaves)
	}
	blocks := gatherBlocks(pairs, tile)
	return dealLPT(blocks, blockWeights(blocks, cost), slaves)
}
