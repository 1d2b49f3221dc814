// Multi-chip rckAlign: shard the all-vs-all pair matrix across N SCC
// chips and farm each shard on its own chip, coordinated by the root
// master over the board-level interconnect (see internal/farm's
// MultiSession and internal/interchip). One chip is one shard on one
// plain Session, so a 1-chip run is the paper's single-master farm by
// construction.
package core

import (
	"rckalign/internal/farm"
	"rckalign/internal/interchip"
	"rckalign/internal/sched"
)

// ShardJobHeaderBytes is the per-job descriptor size inside a shard
// message (job id, structure ids, lengths).
const ShardJobHeaderBytes = 16

// MultiChipConfig extends Config with the multi-chip axes. The embedded
// Config's Chip describes each chip (every chip's master is its core 0,
// the root is chip 0's).
type MultiChipConfig struct {
	Config
	// Chips is the chip count (<= 1 is the paper's single chip).
	Chips int
	// Interchip is the board-level interconnect cost profile (zero value
	// = interchip.DefaultConfig, the board profile).
	Interchip interchip.Config
	// Gather selects the result-aggregation topology across chips (zero
	// value = a gather tree of farm.DefaultGatherArity).
	Gather farm.GatherConfig
}

// shardTileSize is the block granularity, in structures, for sharding
// the pair grid across chips — whole Tile x Tile blocks move together so
// each structure lands on few chips: the run's blocked-ordering tile, or
// sched.DefaultTile when blocking is off.
func shardTileSize(orderTile int) int {
	if orderTile > 1 {
		return orderTile
	}
	return sched.DefaultTile
}

// shardWireBytes models handing one shard to a remote chip over the
// interchip fabric: the shard framing, one descriptor per job, and each
// distinct structure's coordinates exactly once — the board-tier
// analogue of the on-chip structure-cache model (a chip never receives
// the same coordinates twice in one scatter).
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

// RunMultiChip simulates rckAlign on cfg.Chips SCC chips with
// slavesPerChip slave cores each. The pair list is ordered once, sharded
// into whole tile blocks across chips (heaviest block first onto the
// least loaded chip; one chip gets the list unchanged), and each shard is
// farmed by its chip's master. At Chips > 1 the root master on chip 0
// scatters the shards over the interchip fabric and results return as
// aggregate blobs up the configured gather topology; fault plans (core
// ids global across the board) are split per chip and affinity deals
// each shard onto that chip's workers. See Validate for the one feature
// combination that does not compose.
func RunMultiChip(pr *PairResults, slavesPerChip int, cfg MultiChipConfig) (RunResult, error) {
	if err := cfg.Validate(); err != nil {
		return RunResult{}, err
	}
	p, err := newPlan(pr, slavesPerChip, cfg)
	if err != nil {
		return RunResult{}, err
	}
	rep, err := p.run()
	return RunResult{Report: rep}, err
}

// RunChipSweep simulates RunMultiChip at each chip count and returns
// the results in order (the scaling-curve axis of the chip-scaling
// experiment).
func RunChipSweep(pr *PairResults, slavesPerChip int, chipCounts []int, cfg MultiChipConfig) ([]RunResult, error) {
	return farm.Sweep(chipCounts, cfg.sharesSinks(), func(n int) (RunResult, error) {
		c := cfg
		c.Chips = n
		return RunMultiChip(pr, slavesPerChip, c)
	})
}
