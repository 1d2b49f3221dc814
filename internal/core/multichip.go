// Multi-chip rckAlign: shard the all-vs-all pair matrix across N SCC
// chips and farm each shard on its own chip, coordinated by the root
// master over the board-level interconnect (see internal/farm's board
// and internal/interchip). One chip is one shard on a one-chip board,
// which has no board tier at all, so a 1-chip run is the paper's
// single-master farm by construction.
package core

import "rckalign/internal/farm"

// MultiChipConfig is RunChipSweep's configuration: a Config, whose
// Chips the sweep sets point by point.
type MultiChipConfig struct {
	Config
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
