package farm_test

// The golden equivalence test: every run path on the farm harness must
// reproduce the captured simulated timings bit-for-bit (same seed =>
// identical TotalSeconds, farm statistics and similarity matrices).
// The scenarios below are the golden's one definition — they both check
// testdata/golden.json and, only when a timing-model change is intended,
// rewrite it:
//
//	go test ./internal/farm -run TestGolden -update
//
// encoding/json round-trips float64 exactly, so comparisons use ==.

import (
	"encoding/json"
	"flag"
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

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the golden scenarios")

const goldenPath = "testdata/golden.json"

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
	Name         string                 `json:"name"`
	TotalSeconds float64                `json:"total_seconds"`
	Similarity   map[string][][]float64 `json:"similarity"`
	BusySeconds  map[string]float64     `json:"busy_seconds_per_method"`
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
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	var g golden
	if err := json.Unmarshal(buf, &g); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	return g
}

// rewriteGolden replaces one test's section of the golden file (-update).
func rewriteGolden(t *testing.T, set func(*golden)) {
	t.Helper()
	g := loadGolden(t)
	set(&g)
	buf, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
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

// flat runs the one-chip farm with DefaultConfig after mut.
func flat(slaves int, mut func(*core.Config)) func(*core.PairResults) (core.RunResult, error) {
	return func(pr *core.PairResults) (core.RunResult, error) {
		cfg := core.DefaultConfig()
		if mut != nil {
			mut(&cfg)
		}
		return core.Run(pr, slaves, cfg)
	}
}

// coreScenarios are the captured core runs, in golden.json order.
var coreScenarios = []struct {
	name string
	run  func(*core.PairResults) (core.RunResult, error)
}{
	{"core-flat-s1", flat(1, nil)},
	{"core-flat-s4", flat(4, nil)},
	{"core-flat-s7", flat(7, nil)},
	{"core-lpt-s5", flat(5, func(c *core.Config) { c.Order = sched.LPT })},
	{"core-random-s5", flat(5, func(c *core.Config) { c.Order, c.OrderSeed = sched.Random, 42 })},
	// Event-driven polling ablation.
	{"core-poll0-s4", flat(4, func(c *core.Config) { c.PollingScale = 0 })},
	// Dual-threaded tile workers, even and odd (core-dropping) counts.
	{"core-threads2-s6", flat(6, func(c *core.Config) { c.ThreadsPerWorker = 2 })},
	{"core-threads2-s7", flat(7, func(c *core.Config) { c.ThreadsPerWorker = 2 })},
	// The master tree: a sub-master per chip, ideal interconnect.
	{"core-chips2-ideal-s3", func(pr *core.PairResults) (core.RunResult, error) {
		ideal, err := interchip.Profile("ideal")
		if err != nil {
			return core.RunResult{}, err
		}
		return core.RunMultiChip(pr, 3, core.MultiChipConfig{Config: core.DefaultConfig(), Chips: 2, Interchip: ideal})
	}},
	// Out-of-core tiled run: the budget forces several blocks.
	{"core-tiled-s4", func(pr *core.PairResults) (core.RunResult, error) {
		return flat(4, func(c *core.Config) { c.MemoryBudgetResidues = pr.Dataset.TotalResidues() * 2 / 5 })(pr)
	}},
}

// TestGoldenCoreRuns re-executes every core scenario on the farm-based
// harness and demands bit-for-bit identical reports.
func TestGoldenCoreRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("native TM-align pass in -short mode")
	}
	want := loadGolden(t).Farm
	pr := goldenPairs()
	var got []farmRun
	for i, sc := range coreScenarios {
		t.Run(sc.name, func(t *testing.T) {
			r, err := sc.run(pr)
			if err != nil {
				t.Fatal(err)
			}
			fr := farmRun{
				Name:            sc.name,
				TotalSeconds:    r.TotalSeconds,
				LoadSeconds:     r.LoadSeconds,
				Collected:       r.Collected,
				JobsPerSlave:    jobsKey(r.FarmStats.JobsPerSlave),
				PollProbes:      r.FarmStats.PollProbes,
				MakespanSeconds: r.FarmStats.MakespanSeconds,
			}
			if td := r.Tiled; td != nil {
				fr.Blocks, fr.BlockLoads, fr.ReloadSeconds = td.Blocks, td.BlockLoads, td.ReloadSeconds
			}
			got = append(got, fr)
			if *update {
				return
			}
			if i >= len(want) {
				t.Fatalf("golden has %d core runs, this is scenario %d", len(want), i)
			}
			if !reflect.DeepEqual(fr, want[i]) {
				t.Errorf("run diverges from golden:\n got %+v\nwant %+v", fr, want[i])
			}
		})
	}
	if *update {
		rewriteGolden(t, func(g *golden) { g.Farm = got })
	} else if len(want) != len(coreScenarios) {
		t.Errorf("golden has %d core runs, the test defines %d", len(want), len(coreScenarios))
	}
}

// TestGoldenDistRuns checks the MCPC baseline scenarios.
func TestGoldenDistRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("native TM-align pass in -short mode")
	}
	want := loadGolden(t).Dist
	pr := goldenPairs()
	var got []distRun
	for i, n := range []int{1, 5} {
		name := fmt.Sprintf("dist-s%d", n)
		t.Run(name, func(t *testing.T) {
			r, err := dist.Run(pr, n, dist.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			dr := distRun{Name: name, TotalSeconds: r.TotalSeconds, DiskBusySeconds: r.DiskBusySeconds, Collected: r.Collected}
			got = append(got, dr)
			if !*update && (i >= len(want) || dr != want[i]) {
				t.Errorf("run diverges from golden entry %d of %d: got %+v", i, len(want), dr)
			}
		})
	}
	if *update {
		rewriteGolden(t, func(g *golden) { g.Dist = got })
	}
}

// legacyMCPSC pins the pre-refactor flat 64-byte result size, so the
// golden isolates harness refactors from the content-sized ScoreBytes
// wire model.
var legacyMCPSC = mcpsc.RunConfig{ResultBytes: func(mcpsc.Score) int { return 64 }}

// The multi-criteria scenarios run cheap methods (fast native compute)
// on their own small dataset.
var (
	mcpscDS      = synth.Small(6, 72)
	mcpscMethods = []mcpsc.Method{mcpsc.GaplessRMSD{}, mcpsc.ContactOverlap{}}
)

// mcpscTable scores pairs of the golden MC-PSC dataset; queryZero is its
// one-vs-all table for structure 0.
func mcpscTable(t *testing.T, pairs []sched.Pair) *mcpsc.Scores {
	t.Helper()
	sc, err := mcpsc.Compute(mcpscDS, pairs, mcpscMethods, pairstore.New(0))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func queryZero(t *testing.T) *mcpsc.Scores {
	t.Helper()
	pairs, err := mcpsc.QueryPairs(mcpscDS, 0)
	if err != nil {
		t.Fatal(err)
	}
	return mcpscTable(t, pairs)
}

// similarity scatters method m's all-vs-all scores into the symmetric
// unit-diagonal matrix golden.json records.
func similarity(sc *mcpsc.Scores, m int) [][]float64 {
	mat := make([][]float64, sc.Dataset.Len())
	for i := range mat {
		mat[i] = make([]float64, len(mat))
		mat[i][i] = 1
	}
	for k, v := range sc.Values(m) {
		p := sc.Pairs[k]
		mat[p.I][p.J], mat[p.J][p.I] = v, v
	}
	return mat
}

// byName keys per-method values by method name, as golden.json does.
func byName[V any](vals func(m int) V) map[string]V {
	out := map[string]V{}
	for m, method := range mcpscMethods {
		out[method.Name()] = vals(m)
	}
	return out
}

// TestGoldenMCPSC checks the multi-criteria scenarios (PSC output and
// timing).
func TestGoldenMCPSC(t *testing.T) {
	want := loadGolden(t)
	var ava mcpscAllVsAll
	t.Run("mcpsc-allvsall-3+3", func(t *testing.T) {
		sc := mcpscTable(t, sched.AllVsAll(mcpscDS.Len()))
		r, err := mcpsc.Run(sc, mcpsc.Contiguous([]int{3, 3}), legacyMCPSC)
		if err != nil {
			t.Fatal(err)
		}
		ava = mcpscAllVsAll{Name: "mcpsc-allvsall-3+3", TotalSeconds: r.TotalSeconds,
			Similarity:  byName(func(m int) [][]float64 { return similarity(sc, m) }),
			BusySeconds: byName(func(m int) float64 { return r.BusySeconds[m] })}
		if !*update && !reflect.DeepEqual([]mcpscAllVsAll{ava}, want.AllVsAll) {
			t.Errorf("all-vs-all diverges from golden: TotalSeconds %v, busy %v", ava.TotalSeconds, ava.BusySeconds)
		}
	})
	var ova mcpscOneVsAll
	t.Run("mcpsc-onevsall-q0-s5", func(t *testing.T) {
		sc := queryZero(t)
		r, err := mcpsc.Run(sc, mcpsc.RoundRobin(2, 5), legacyMCPSC)
		if err != nil {
			t.Fatal(err)
		}
		consensus := mcpsc.Consensus([][]float64{sc.Values(0), sc.Values(1)})
		ova = mcpscOneVsAll{Name: "mcpsc-onevsall-q0-s5", TotalSeconds: r.TotalSeconds,
			PerMethod: byName(sc.Values), Consensus: consensus, Ranking: mcpsc.Rank(consensus)}
		if !*update && !reflect.DeepEqual([]mcpscOneVsAll{ova}, want.OneVsAll) {
			t.Errorf("one-vs-all diverges from golden:\n got %+v\nwant %+v", ova, want.OneVsAll)
		}
	})
	if *update {
		rewriteGolden(t, func(g *golden) {
			g.AllVsAll, g.OneVsAll = []mcpscAllVsAll{ava}, []mcpscOneVsAll{ova}
		})
	}
}

// TestScoreBytesChargesContent pins the wire-size fix: the default
// model must charge more than the old flat 64 bytes (it carries the
// method label, the value and the full operation-counter block).
func TestScoreBytesChargesContent(t *testing.T) {
	sc := queryZero(t)
	for m, method := range mcpscMethods {
		if got := mcpsc.ScoreBytes(sc.Row(m)[0]); got <= 64 {
			t.Errorf("ScoreBytes(%s) = %d, want > 64", method.Name(), got)
		}
	}
	// And the default (nil ResultBytes) run must therefore be slower than
	// the pinned legacy run: more result bytes on the same mesh.
	assign := mcpsc.RoundRobin(2, 5)
	legacy, err := mcpsc.Run(sc, assign, legacyMCPSC)
	if err != nil {
		t.Fatal(err)
	}
	modeled, err := mcpsc.Run(sc, assign, mcpsc.RunConfig{})
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
			if f.Injected != (fault.Stats{}) || len(f.DeadCores) != 0 ||
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
