// Multi-chip rckAlign: shard the all-vs-all pair matrix across N SCC
// chips and farm each shard on its own chip, coordinated by the root
// master over the board-level interconnect (see internal/farm's board
// and internal/interchip). One chip is one shard on a one-chip board,
// which has no board tier at all, so a 1-chip run is the paper's
// single-master farm by construction.
package core

import (
	"rckalign/internal/farm"
	"rckalign/internal/sched"
)

// ShardJobHeaderBytes is the per-job descriptor size inside a shard
// message (job id, structure ids, lengths).
const ShardJobHeaderBytes = 16

// MultiChipConfig is RunChipSweep's configuration: a Config, whose
// Chips the sweep sets point by point.
type MultiChipConfig struct {
	Config
}

// shardWireBytes models handing one shard to a remote chip over the
// interchip fabric: the shard framing, one descriptor per job, and each
// distinct structure's coordinates exactly once — the board-tier
// analogue of the on-chip structure-cache model (a chip never receives
// the same coordinates twice in one scatter). An empty shard costs its
// framing alone.
func shardWireBytes(shard []sched.Pair, sizes []int) int64 {
	bytes := int64(farm.ShardHeaderBytes) + int64(len(shard))*ShardJobHeaderBytes
	seen := map[int]bool{}
	for _, p := range shard {
		for _, i := range []int{p.I, p.J} {
			if !seen[i] {
				seen[i] = true
				bytes += int64(sizes[i])
			}
		}
	}
	return bytes
}

// RunChipSweep simulates Run at each chip count and returns the results
// in order (the scaling-curve axis of the chip-scaling experiment).
func RunChipSweep(pr *PairResults, slavesPerChip int, chipCounts []int, cfg MultiChipConfig) ([]RunResult, error) {
	return farm.Sweep(chipCounts, cfg.sharesSinks(), func(n int) (RunResult, error) {
		c := cfg.Config
		c.Chips = n
		return Run(pr, slavesPerChip, c)
	})
}
