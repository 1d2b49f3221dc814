package farm_test

// The golden equivalence test: every run path ported onto the farm
// harness must reproduce the simulated timings captured from the
// pre-refactor code bit-for-bit (same seed => identical TotalSeconds,
// farm statistics and similarity matrices). testdata/golden.json was
// written by cmd/goldencap against the hand-rolled run functions;
// encoding/json round-trips float64 exactly, so comparisons use ==.

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"rckalign/internal/core"
	"rckalign/internal/dist"
	"rckalign/internal/fault"
	"rckalign/internal/interchip"
	"rckalign/internal/mcpsc"
	"rckalign/internal/pairstore"
	"rckalign/internal/sched"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

type farmRun struct {
	Name            string         `json:"name"`
	TotalSeconds    float64        `json:"total_seconds"`
	LoadSeconds     float64        `json:"load_seconds"`
	Collected       int            `json:"collected"`
	JobsPerSlave    map[string]int `json:"jobs_per_slave"`
	PollProbes      int            `json:"poll_probes"`
	MakespanSeconds float64        `json:"makespan_seconds"`
	Blocks          int            `json:"blocks,omitempty"`
	BlockLoads      int            `json:"block_loads,omitempty"`
	ReloadSeconds   float64        `json:"reload_seconds,omitempty"`
}

type distRun struct {
	Name            string  `json:"name"`
	TotalSeconds    float64 `json:"total_seconds"`
	DiskBusySeconds float64 `json:"disk_busy_seconds"`
	Collected       int     `json:"collected"`
}

type mcpscAllVsAll struct {
	Name                 string                 `json:"name"`
	TotalSeconds         float64                `json:"total_seconds"`
	Similarity           map[string][][]float64 `json:"similarity"`
	BusySecondsPerMethod map[string]float64     `json:"busy_seconds_per_method"`
}

type mcpscOneVsAll struct {
	Name         string               `json:"name"`
	TotalSeconds float64              `json:"total_seconds"`
	PerMethod    map[string][]float64 `json:"per_method"`
	Consensus    []float64            `json:"consensus"`
	Ranking      []int                `json:"ranking"`
}

type golden struct {
	CoreDataset  string          `json:"core_dataset"`
	MCPSCDataset string          `json:"mcpsc_dataset"`
	Farm         []farmRun       `json:"farm"`
	Dist         []distRun       `json:"dist"`
	AllVsAll     []mcpscAllVsAll `json:"all_vs_all"`
	OneVsAll     []mcpscOneVsAll `json:"one_vs_all"`
}

func loadGolden(t *testing.T) golden {
	t.Helper()
	buf, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	var g golden
	if err := json.Unmarshal(buf, &g); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	return g
}

var (
	goldenPROnce sync.Once
	goldenPR     *core.PairResults
)

// goldenPairs recomputes the native TM-align results for the golden core
// dataset (deterministic, shared across subtests).
func goldenPairs() *core.PairResults {
	goldenPROnce.Do(func() {
		goldenPR = core.ComputeAllPairsShared(synth.Small(8, 77), tmalign.FastOptions(), pairstore.New(0))
	})
	return goldenPR
}

func jobsKey(m map[int]int) map[string]int {
	out := map[string]int{}
	for k, v := range m {
		out[fmt.Sprint(k)] = v
	}
	return out
}

func checkFarmRun(t *testing.T, want farmRun, r core.RunResult, blocks, blockLoads int, reload float64) {
	t.Helper()
	if r.TotalSeconds != want.TotalSeconds {
		t.Errorf("%s: TotalSeconds = %v, golden %v", want.Name, r.TotalSeconds, want.TotalSeconds)
	}
	if r.LoadSeconds != want.LoadSeconds {
		t.Errorf("%s: LoadSeconds = %v, golden %v", want.Name, r.LoadSeconds, want.LoadSeconds)
	}
	if r.Collected != want.Collected {
		t.Errorf("%s: Collected = %d, golden %d", want.Name, r.Collected, want.Collected)
	}
	if got := jobsKey(r.FarmStats.JobsPerSlave); !reflect.DeepEqual(got, want.JobsPerSlave) {
		t.Errorf("%s: JobsPerSlave = %v, golden %v", want.Name, got, want.JobsPerSlave)
	}
	if r.FarmStats.PollProbes != want.PollProbes {
		t.Errorf("%s: PollProbes = %d, golden %d", want.Name, r.FarmStats.PollProbes, want.PollProbes)
	}
	if r.FarmStats.MakespanSeconds != want.MakespanSeconds {
		t.Errorf("%s: MakespanSeconds = %v, golden %v", want.Name, r.FarmStats.MakespanSeconds, want.MakespanSeconds)
	}
	if blocks != want.Blocks || blockLoads != want.BlockLoads || reload != want.ReloadSeconds {
		t.Errorf("%s: blocks/loads/reload = %d/%d/%v, golden %d/%d/%v",
			want.Name, blocks, blockLoads, reload, want.Blocks, want.BlockLoads, want.ReloadSeconds)
	}
}

// TestGoldenCoreRuns re-executes every captured core scenario on the
// farm-based harness and demands bit-for-bit identical reports.
func TestGoldenCoreRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("native TM-align pass in -short mode")
	}
	g := loadGolden(t)
	pr := goldenPairs()

	runs := map[string]func() (core.RunResult, int, int, float64, error){
		"core-flat-s1": func() (core.RunResult, int, int, float64, error) {
			r, err := core.Run(pr, 1, core.DefaultConfig())
			return r, 0, 0, 0, err
		},
		"core-flat-s4": func() (core.RunResult, int, int, float64, error) {
			r, err := core.Run(pr, 4, core.DefaultConfig())
			return r, 0, 0, 0, err
		},
		"core-flat-s7": func() (core.RunResult, int, int, float64, error) {
			r, err := core.Run(pr, 7, core.DefaultConfig())
			return r, 0, 0, 0, err
		},
		"core-lpt-s5": func() (core.RunResult, int, int, float64, error) {
			cfg := core.DefaultConfig()
			cfg.Order = sched.LPT
			r, err := core.Run(pr, 5, cfg)
			return r, 0, 0, 0, err
		},
		"core-random-s5": func() (core.RunResult, int, int, float64, error) {
			cfg := core.DefaultConfig()
			cfg.Order = sched.Random
			cfg.OrderSeed = 42
			r, err := core.Run(pr, 5, cfg)
			return r, 0, 0, 0, err
		},
		"core-poll0-s4": func() (core.RunResult, int, int, float64, error) {
			cfg := core.DefaultConfig()
			cfg.PollingScale = 0
			r, err := core.Run(pr, 4, cfg)
			return r, 0, 0, 0, err
		},
		"core-threads2-s6": func() (core.RunResult, int, int, float64, error) {
			cfg := core.DefaultConfig()
			cfg.ThreadsPerWorker = 2
			r, err := core.Run(pr, 6, cfg)
			return r, 0, 0, 0, err
		},
		"core-threads2-s7": func() (core.RunResult, int, int, float64, error) {
			cfg := core.DefaultConfig()
			cfg.ThreadsPerWorker = 2
			r, err := core.Run(pr, 7, cfg)
			return r, 0, 0, 0, err
		},
		"core-chips2-ideal-s3": func() (core.RunResult, int, int, float64, error) {
			ideal, err := interchip.Profile("ideal")
			if err != nil {
				return core.RunResult{}, 0, 0, 0, err
			}
			r, err := core.RunMultiChip(pr, 3, core.MultiChipConfig{Config: core.DefaultConfig(), Chips: 2, Interchip: ideal})
			return r, 0, 0, 0, err
		},
		"core-tiled-s4": func() (core.RunResult, int, int, float64, error) {
			cfg := core.DefaultConfig()
			cfg.MemoryBudgetResidues = pr.Dataset.TotalResidues() * 2 / 5
			r, err := core.Run(pr, 4, cfg)
			if err != nil {
				return r, 0, 0, 0, err
			}
			return r, r.Tiled.Blocks, r.Tiled.BlockLoads, r.Tiled.ReloadSeconds, nil
		},
	}
	for _, want := range g.Farm {
		want := want
		t.Run(want.Name, func(t *testing.T) {
			run, ok := runs[want.Name]
			if !ok {
				t.Fatalf("golden scenario %q has no runner; update golden_test.go", want.Name)
			}
			r, blocks, loads, reload, err := run()
			if err != nil {
				t.Fatal(err)
			}
			checkFarmRun(t, want, r, blocks, loads, reload)
		})
	}
}

// TestGoldenDistRuns checks the MCPC baseline scenarios.
func TestGoldenDistRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("native TM-align pass in -short mode")
	}
	g := loadGolden(t)
	pr := goldenPairs()
	slavesOf := map[string]int{"dist-s1": 1, "dist-s5": 5}
	for _, want := range g.Dist {
		want := want
		t.Run(want.Name, func(t *testing.T) {
			n, ok := slavesOf[want.Name]
			if !ok {
				t.Fatalf("golden scenario %q has no runner; update golden_test.go", want.Name)
			}
			r, err := dist.Run(pr, n, dist.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if r.TotalSeconds != want.TotalSeconds {
				t.Errorf("TotalSeconds = %v, golden %v", r.TotalSeconds, want.TotalSeconds)
			}
			if r.DiskBusySeconds != want.DiskBusySeconds {
				t.Errorf("DiskBusySeconds = %v, golden %v", r.DiskBusySeconds, want.DiskBusySeconds)
			}
			if r.Collected != want.Collected {
				t.Errorf("Collected = %d, golden %d", r.Collected, want.Collected)
			}
		})
	}
}

// legacyMCPSCConfig pins the pre-refactor flat 64-byte result size, so
// the comparison isolates the harness port from the intentional
// ScoreBytes wire-model change.
func legacyMCPSCConfig() mcpsc.RunConfig {
	cfg := mcpsc.DefaultRunConfig()
	cfg.ResultBytes = func(mcpsc.Score) int { return 64 }
	return cfg
}

// TestGoldenMCPSC checks the multi-criteria scenarios (PSC output and
// timing).
func TestGoldenMCPSC(t *testing.T) {
	g := loadGolden(t)
	mds := synth.Small(6, 72)
	methods := []mcpsc.Method{mcpsc.GaplessRMSD{}, mcpsc.ContactOverlap{}}
	for _, want := range g.AllVsAll {
		want := want
		t.Run(want.Name, func(t *testing.T) {
			r, err := mcpsc.RunAllVsAll(mds, methods, []int{3, 3}, legacyMCPSCConfig())
			if err != nil {
				t.Fatal(err)
			}
			if r.TotalSeconds != want.TotalSeconds {
				t.Errorf("TotalSeconds = %v, golden %v", r.TotalSeconds, want.TotalSeconds)
			}
			if !reflect.DeepEqual(r.Similarity, want.Similarity) {
				t.Errorf("Similarity diverges from golden")
			}
			if !reflect.DeepEqual(r.BusySecondsPerMethod, want.BusySecondsPerMethod) {
				t.Errorf("BusySecondsPerMethod = %v, golden %v", r.BusySecondsPerMethod, want.BusySecondsPerMethod)
			}
		})
	}
	for _, want := range g.OneVsAll {
		want := want
		t.Run(want.Name, func(t *testing.T) {
			r, err := mcpsc.RunOneVsAll(mds, 0, methods, 5, legacyMCPSCConfig())
			if err != nil {
				t.Fatal(err)
			}
			if r.TotalSeconds != want.TotalSeconds {
				t.Errorf("TotalSeconds = %v, golden %v", r.TotalSeconds, want.TotalSeconds)
			}
			if !reflect.DeepEqual(r.PerMethod, want.PerMethod) {
				t.Errorf("PerMethod diverges from golden")
			}
			if !reflect.DeepEqual(r.Consensus, want.Consensus) {
				t.Errorf("Consensus diverges from golden")
			}
			if !reflect.DeepEqual(r.Ranking, want.Ranking) {
				t.Errorf("Ranking = %v, golden %v", r.Ranking, want.Ranking)
			}
		})
	}
}

// TestScoreBytesChargesContent pins the wire-size fix: the default
// model must charge more than the old flat 64 bytes (it carries the
// method label, the value and the full operation-counter block).
func TestScoreBytesChargesContent(t *testing.T) {
	mds := synth.Small(6, 72)
	for _, m := range []mcpsc.Method{mcpsc.GaplessRMSD{}, mcpsc.ContactOverlap{}} {
		s := m.Compare(mds.Structures[0], mds.Structures[1])
		if got := mcpsc.ScoreBytes(s); got <= 64 {
			t.Errorf("ScoreBytes(%s) = %d, want > 64", m.Name(), got)
		}
	}
	// And the default (nil ResultBytes) run must therefore be slower than
	// the pinned legacy run: more result bytes on the same mesh.
	legacy, err := mcpsc.RunOneVsAll(mds, 0, []mcpsc.Method{mcpsc.GaplessRMSD{}, mcpsc.ContactOverlap{}}, 5, legacyMCPSCConfig())
	if err != nil {
		t.Fatal(err)
	}
	modeled, err := mcpsc.RunOneVsAll(mds, 0, []mcpsc.Method{mcpsc.GaplessRMSD{}, mcpsc.ContactOverlap{}}, 5, mcpsc.DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if modeled.TotalSeconds <= legacy.TotalSeconds {
		t.Errorf("content-sized results should cost more: modeled %v <= legacy %v",
			modeled.TotalSeconds, legacy.TotalSeconds)
	}
}

// TestGoldenZeroPlanEquivalence re-runs every golden scenario — plus
// the cache-affinity (per-worker queues) one — with an empty fault plan
// and demands a bit-identical Report: there is one FARM, so an installed
// interposer and an armed but never-firing deadline must cost nothing.
func TestGoldenZeroPlanEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("native TM-align pass in -short mode")
	}
	pr := goldenPairs()

	lpt := core.DefaultConfig()
	lpt.Order = sched.LPT
	random := core.DefaultConfig()
	random.Order = sched.Random
	random.OrderSeed = 42
	poll0 := core.DefaultConfig()
	poll0.PollingScale = 0
	threads2 := core.DefaultConfig()
	threads2.ThreadsPerWorker = 2
	tiled := core.DefaultConfig()
	tiled.MemoryBudgetResidues = pr.Dataset.TotalResidues() * 2 / 5
	affinity := core.DefaultConfig()
	affinity.Affinity, affinity.CacheStructs, affinity.Batch = true, -1, 2

	scenarios := map[string]struct {
		slaves int
		cfg    core.Config
	}{
		"core-flat-s1":     {1, core.DefaultConfig()},
		"core-flat-s4":     {4, core.DefaultConfig()},
		"core-flat-s7":     {7, core.DefaultConfig()},
		"core-lpt-s5":      {5, lpt},
		"core-random-s5":   {5, random},
		"core-poll0-s4":    {4, poll0},
		"core-threads2-s6": {6, threads2},
		"core-threads2-s7": {7, threads2},
		"core-tiled-s4":    {4, tiled},
		"core-affinity-s5": {5, affinity},
	}
	for name, sc := range scenarios {
		sc := sc
		t.Run(name, func(t *testing.T) {
			classic, err := core.Run(pr, sc.slaves, sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			fcfg := sc.cfg
			fcfg.Faults = &fault.Plan{}
			ft, err := core.Run(pr, sc.slaves, fcfg)
			if err != nil {
				t.Fatal(err)
			}
			f := ft.Faults
			if f == nil {
				t.Fatal("a run under a fault plan produced no Faults block")
			}
			if f.Injected.Total() != 0 || len(f.DeadCores) != 0 ||
				f.Timeouts != 0 || f.DetectedCorrupt != 0 || f.Retries != 0 ||
				f.Reassigned != 0 || f.DuplicatesDropped != 0 || f.LostJobs != 0 ||
				len(f.Blacklisted) != 0 {
				t.Errorf("empty plan left nonzero fault stats: %+v", f)
			}
			got := ft.Report
			got.Faults = nil
			if !reflect.DeepEqual(classic.Report, got) {
				t.Errorf("zero-plan report diverges from classic:\nclassic %+v\nft      %+v",
					classic.Report, got)
			}
		})
	}
}

// TestReportDeterminism runs the same configuration twice and demands
// identical farm reports (the harness must be free of map-iteration or
// wall-clock nondeterminism).
func TestReportDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("native TM-align pass in -short mode")
	}
	pr := goldenPairs()
	cfg := core.DefaultConfig()
	cfg.ThreadsPerWorker = 2
	a, err := core.Run(pr, 7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Run(pr, 7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Report, b.Report) {
		t.Errorf("reports differ between identical runs:\n%+v\n%+v", a.Report, b.Report)
	}
}
