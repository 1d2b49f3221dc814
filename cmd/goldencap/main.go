// Command goldencap captures the simulated timings, farm statistics and
// PSC outputs of every run path on small synthetic datasets and writes
// them as JSON. The captured file is the reference for the golden
// equivalence test in internal/farm, which asserts that refactors of
// the run harness leave the simulated behaviour bit-for-bit unchanged.
//
// Regenerate (only when a timing model change is intended):
//
//	go run ./cmd/goldencap -out internal/farm/testdata/golden.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"rckalign/internal/core"
	"rckalign/internal/dist"
	"rckalign/internal/interchip"
	"rckalign/internal/mcpsc"
	"rckalign/internal/pairstore"
	"rckalign/internal/sched"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

// FarmRun is one captured master–slaves execution.
type FarmRun struct {
	Name            string         `json:"name"`
	TotalSeconds    float64        `json:"total_seconds"`
	LoadSeconds     float64        `json:"load_seconds"`
	Collected       int            `json:"collected"`
	JobsPerSlave    map[string]int `json:"jobs_per_slave"`
	PollProbes      int            `json:"poll_probes"`
	MakespanSeconds float64        `json:"makespan_seconds"`
	// Tiled-only block accounting.
	Blocks        int     `json:"blocks,omitempty"`
	BlockLoads    int     `json:"block_loads,omitempty"`
	ReloadSeconds float64 `json:"reload_seconds,omitempty"`
}

// DistRun is one captured MCPC-driven distributed execution.
type DistRun struct {
	Name            string  `json:"name"`
	TotalSeconds    float64 `json:"total_seconds"`
	DiskBusySeconds float64 `json:"disk_busy_seconds"`
	Collected       int     `json:"collected"`
}

// MCPSCAllVsAll is one captured multi-criteria all-vs-all execution.
type MCPSCAllVsAll struct {
	Name                 string                 `json:"name"`
	TotalSeconds         float64                `json:"total_seconds"`
	Similarity           map[string][][]float64 `json:"similarity"`
	BusySecondsPerMethod map[string]float64     `json:"busy_seconds_per_method"`
}

// MCPSCOneVsAll is one captured multi-criteria one-vs-all query.
type MCPSCOneVsAll struct {
	Name         string               `json:"name"`
	TotalSeconds float64              `json:"total_seconds"`
	PerMethod    map[string][]float64 `json:"per_method"`
	Consensus    []float64            `json:"consensus"`
	Ranking      []int                `json:"ranking"`
}

// Golden is the full captured reference.
type Golden struct {
	CoreDataset  string          `json:"core_dataset"`
	MCPSCDataset string          `json:"mcpsc_dataset"`
	Farm         []FarmRun       `json:"farm"`
	Dist         []DistRun       `json:"dist"`
	AllVsAll     []MCPSCAllVsAll `json:"all_vs_all"`
	OneVsAll     []MCPSCOneVsAll `json:"one_vs_all"`
}

func jobsKey(m map[int]int) map[string]int {
	out := map[string]int{}
	for k, v := range m {
		out[fmt.Sprint(k)] = v
	}
	return out
}

func main() {
	out := flag.String("out", "internal/farm/testdata/golden.json", "output path")
	flag.Parse()

	// The same small deterministic datasets the package tests use: the
	// native TM-align pass stays fast while exercising realistic job-size
	// variance.
	coreDS := synth.Small(8, 77)
	pr := core.ComputeAllPairsShared(coreDS, tmalign.FastOptions(), pairstore.New(0))
	g := Golden{CoreDataset: "Small(8,77)", MCPSCDataset: "Small(6,72)"}

	farmRun := func(name string, r core.RunResult) FarmRun {
		return FarmRun{
			Name:            name,
			TotalSeconds:    r.TotalSeconds,
			LoadSeconds:     r.LoadSeconds,
			Collected:       r.Collected,
			JobsPerSlave:    jobsKey(r.FarmStats.JobsPerSlave),
			PollProbes:      r.FarmStats.PollProbes,
			MakespanSeconds: r.FarmStats.MakespanSeconds,
		}
	}

	// Flat farm at several slave counts.
	for _, n := range []int{1, 4, 7} {
		r, err := core.Run(pr, n, core.DefaultConfig())
		check(err)
		g.Farm = append(g.Farm, farmRun(fmt.Sprintf("core-flat-s%d", n), r))
	}
	// LPT ordering.
	{
		cfg := core.DefaultConfig()
		cfg.Order = sched.LPT
		r, err := core.Run(pr, 5, cfg)
		check(err)
		g.Farm = append(g.Farm, farmRun("core-lpt-s5", r))
	}
	// Random ordering (seeded).
	{
		cfg := core.DefaultConfig()
		cfg.Order = sched.Random
		cfg.OrderSeed = 42
		r, err := core.Run(pr, 5, cfg)
		check(err)
		g.Farm = append(g.Farm, farmRun("core-random-s5", r))
	}
	// Event-driven polling ablation.
	{
		cfg := core.DefaultConfig()
		cfg.PollingScale = 0
		r, err := core.Run(pr, 4, cfg)
		check(err)
		g.Farm = append(g.Farm, farmRun("core-poll0-s4", r))
	}
	// Dual-threaded tile workers, even and odd (core-dropping) counts.
	for _, n := range []int{6, 7} {
		cfg := core.DefaultConfig()
		cfg.ThreadsPerWorker = 2
		r, err := core.Run(pr, n, cfg)
		check(err)
		g.Farm = append(g.Farm, farmRun(fmt.Sprintf("core-threads2-s%d", n), r))
	}
	// The master tree: a sub-master per chip, ideal interconnect.
	{
		ideal, err := interchip.Profile("ideal")
		check(err)
		r, err := core.RunMultiChip(pr, 3, core.MultiChipConfig{Config: core.DefaultConfig(), Chips: 2, Interchip: ideal})
		check(err)
		g.Farm = append(g.Farm, farmRun("core-chips2-ideal-s3", r))
	}
	// Out-of-core tiled run: budget forces several blocks.
	{
		cfg := core.DefaultConfig()
		cfg.MemoryBudgetResidues = coreDS.TotalResidues() * 2 / 5
		r, err := core.Run(pr, 4, cfg)
		check(err)
		fr := farmRun("core-tiled-s4", r)
		fr.Blocks = r.Tiled.Blocks
		fr.BlockLoads = r.Tiled.BlockLoads
		fr.ReloadSeconds = r.Tiled.ReloadSeconds
		g.Farm = append(g.Farm, fr)
	}
	// Distributed MCPC baseline.
	for _, n := range []int{1, 5} {
		r, err := dist.Run(pr, n, dist.DefaultConfig())
		check(err)
		g.Dist = append(g.Dist, DistRun{
			Name:            fmt.Sprintf("dist-s%d", n),
			TotalSeconds:    r.TotalSeconds,
			DiskBusySeconds: r.DiskBusySeconds,
			Collected:       r.Collected,
		})
	}

	// Multi-criteria runs (cheap methods keep the native compute fast).
	// The scenarios pin the legacy flat 64-byte result size so the golden
	// file isolates harness refactors from the newer content-sized
	// ScoreBytes wire model.
	mds := synth.Small(6, 72)
	methods := []mcpsc.Method{mcpsc.GaplessRMSD{}, mcpsc.ContactOverlap{}}
	mcfg := mcpsc.DefaultRunConfig()
	mcfg.ResultBytes = func(mcpsc.Score) int { return 64 }
	{
		r, err := mcpsc.RunAllVsAll(mds, methods, []int{3, 3}, mcfg)
		check(err)
		g.AllVsAll = append(g.AllVsAll, MCPSCAllVsAll{
			Name:                 "mcpsc-allvsall-3+3",
			TotalSeconds:         r.TotalSeconds,
			Similarity:           r.Similarity,
			BusySecondsPerMethod: r.BusySecondsPerMethod,
		})
	}
	{
		r, err := mcpsc.RunOneVsAll(mds, 0, methods, 5, mcfg)
		check(err)
		g.OneVsAll = append(g.OneVsAll, MCPSCOneVsAll{
			Name:         "mcpsc-onevsall-q0-s5",
			TotalSeconds: r.TotalSeconds,
			PerMethod:    r.PerMethod,
			Consensus:    r.Consensus,
			Ranking:      r.Ranking,
		})
	}

	buf, err := json.MarshalIndent(g, "", "  ")
	check(err)
	buf = append(buf, '\n')
	check(os.WriteFile(*out, buf, 0o644))
	fmt.Printf("wrote %s (%d farm, %d dist, %d all-vs-all, %d one-vs-all runs)\n",
		*out, len(g.Farm), len(g.Dist), len(g.AllVsAll), len(g.OneVsAll))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "goldencap:", err)
		os.Exit(1)
	}
}
