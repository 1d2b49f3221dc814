// Gather topology for multi-chip result collection: instead of every
// per-pair result crossing the fabric to the root (the O(pairs) sink
// EXPERIMENTS.md measured at a 6169-deep root inbox on RS119 x 8
// chips), each chip's sub-master aggregates its shard's results into
// summary blobs and ships those up a configurable-arity gather tree —
// the PASTIS-style hierarchical aggregation, one tier above the chip.
// The root then receives O(arity) direct flows instead of N-1 result
// streams, and each blob hop is a single fabric transfer regardless of
// how many pairs it summarises.
package farm

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Gather modes for GatherConfig.Mode.
const (
	// GatherTree forwards aggregates up an Arity-ary tree rooted at
	// chip 0 (the default): chip c's parent is (c-1)/Arity.
	GatherTree = "tree"
	// GatherFlat sends every chip's aggregates straight to the root —
	// the pre-tree topology, kept for A/B comparison. It is the tree
	// whose arity covers every chip: New resolves it to Arity = chips-1.
	GatherFlat = "flat"
)

// DefaultGatherArity is the tree fan-in when GatherConfig.Arity is 0.
const DefaultGatherArity = 4

// AggregateHeaderBytes frames one aggregate blob (origin chip, result
// count, offsets) on top of the summed result payload bytes.
const AggregateHeaderBytes = 64

// ErrGatherSpec reports an unparseable -gather flag value.
var ErrGatherSpec = errors.New("farm: bad gather spec (want flat, tree, or tree:ARITY)")

// GatherConfig selects how a multi-chip run collects results. The zero
// value resolves to a gather tree of DefaultGatherArity. Every chip
// ships one aggregate blob per shard, after its local farm finishes.
type GatherConfig struct {
	// Mode is GatherTree or GatherFlat ("" = GatherTree).
	Mode string
	// Arity is the tree fan-in (<= 0 = DefaultGatherArity; New sets a
	// flat gather's to the chip count - 1).
	Arity int
}

// resolved normalises the zero values and validates Mode.
func (g GatherConfig) resolved() (GatherConfig, error) {
	if g.Mode == "" {
		g.Mode = GatherTree
	}
	if g.Mode != GatherTree && g.Mode != GatherFlat {
		return g, fmt.Errorf("%w: mode %q", ErrGatherSpec, g.Mode)
	}
	if g.Arity <= 0 {
		g.Arity = DefaultGatherArity
	}
	return g, nil
}

// ParseGatherSpec resolves a -gather flag value: "flat", "tree", or
// "tree:ARITY" (ARITY >= 1; 1 degenerates to a relay chain). An empty
// spec yields the default tree.
func ParseGatherSpec(spec string) (GatherConfig, error) {
	g := GatherConfig{}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return g.resolved()
	}
	mode, arity, hasArity := strings.Cut(spec, ":")
	g.Mode = mode
	if hasArity {
		if mode != GatherTree {
			return g, fmt.Errorf("%w: %q (only tree takes an arity)", ErrGatherSpec, spec)
		}
		n, err := strconv.Atoi(arity)
		if err != nil || n < 1 {
			return g, fmt.Errorf("%w: %q (arity must be an integer >= 1)", ErrGatherSpec, spec)
		}
		g.Arity = n
	}
	return g.resolved()
}

// Parent returns the chip aggregates from chip c flow to next (c > 0;
// the root has no parent). Callers use a config resolved by New.
func (g GatherConfig) Parent(c int) int {
	return (c - 1) / g.Arity
}

// Children lists the chips whose aggregates and gather-done markers
// chip c waits for, in ascending order, on an n-chip system.
func (g GatherConfig) Children(c, n int) []int {
	var kids []int
	for d := g.Arity*c + 1; d <= g.Arity*c+g.Arity && d < n; d++ {
		kids = append(kids, d)
	}
	return kids
}

// DepthOf returns chip c's distance from the root (level 0); a blob hop
// from chip c to its parent is a level-DepthOf(c) gather hop.
func (g GatherConfig) DepthOf(c int) int {
	depth := 0
	for c > 0 {
		c = g.Parent(c)
		depth++
	}
	return depth
}

// Depth returns the deepest level of an n-chip gather (0 for n <= 1).
func (g GatherConfig) Depth(n int) int {
	max := 0
	for c := 1; c < n; c++ {
		if d := g.DepthOf(c); d > max {
			max = d
		}
	}
	return max
}
