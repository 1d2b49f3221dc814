package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rckalign/internal/core"
	"rckalign/internal/costmodel"
	"rckalign/internal/dist"
	"rckalign/internal/fault"
	"rckalign/internal/metrics"
	"rckalign/internal/rckskel"
	"rckalign/internal/sched"
	"rckalign/internal/tmalign"
)

// These tests lock in the reproduction quality documented in
// EXPERIMENTS.md, using the committed pair-result caches. They skip
// when the caches are absent (regenerating them natively takes ~36 CPU
// minutes; see testdata/paircache).

func cacheDir(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("full-dataset reproduction in -short mode")
	}
	dir := filepath.Join("..", "..", "testdata", "paircache")
	if _, err := os.Stat(filepath.Join(dir, "CK34.gob")); err != nil {
		t.Skipf("pair cache missing: %v", err)
	}
	return dir
}

func TestReproductionCK34Calibration(t *testing.T) {
	env, err := Load(cacheDir(t), "CK34")
	if err != nil {
		t.Fatal(err)
	}
	p54 := env.CK34.SerialSeconds(costmodel.P54C())
	amd := env.CK34.SerialSeconds(costmodel.AMD24())
	// The calibration rows must stay on Table III within 1%.
	if rel(p54, 2029) > 0.01 {
		t.Errorf("CK34 P54C serial = %v, want ~2029 (calibrated)", p54)
	}
	if rel(amd, 406) > 0.01 {
		t.Errorf("CK34 AMD serial = %v, want ~406 (calibrated)", amd)
	}
}

func TestReproductionSpeedupShape(t *testing.T) {
	env, err := Load(cacheDir(t), "CK34")
	if err != nil {
		t.Fatal(err)
	}
	base := env.CK34.SerialSeconds(costmodel.P54C())
	// Mid-sweep point: paper 8.52x at 9 slaves; we accept 8-9.5.
	r9, err := core.Run(env.CK34, 9, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sp := base / r9.TotalSeconds; sp < 8 || sp > 9.5 {
		t.Errorf("9-slave speedup = %v, want ~8.5-9", sp)
	}
	// Endpoint: paper 36.2x; our lower-variance dataset gives ~42; the
	// claim being locked is "near-linear, within [34, 47]".
	r47, err := core.Run(env.CK34, 47, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sp := base / r47.TotalSeconds; sp < 34 || sp > 47 {
		t.Errorf("47-slave speedup = %v, want near-linear", sp)
	}
}

func TestReproductionDistributedGap(t *testing.T) {
	env, err := Load(cacheDir(t), "CK34")
	if err != nil {
		t.Fatal(err)
	}
	// Experiment I's shape: the distributed baseline is 2-3x slower at
	// both ends of the sweep.
	for _, n := range []int{1, 47} {
		rck, err := core.Run(env.CK34, n, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		dst, err := dist.Run(env.CK34, n)
		if err != nil {
			t.Fatal(err)
		}
		ratio := dst.TotalSeconds / rck.TotalSeconds
		if ratio < 1.8 || ratio > 3.2 {
			t.Errorf("slaves=%d: dist/rck = %v, want the paper's ~2-2.6x", n, ratio)
		}
	}
}

func TestReproductionRS119ScalesBetter(t *testing.T) {
	dir := cacheDir(t)
	if _, err := os.Stat(filepath.Join(dir, "RS119.gob")); err != nil {
		t.Skipf("RS119 cache missing: %v", err)
	}
	env, err := Load(dir, "CK34", "RS119")
	if err != nil {
		t.Fatal(err)
	}
	ckBase := env.CK34.SerialSeconds(costmodel.P54C())
	rsBase := env.RS119.SerialSeconds(costmodel.P54C())
	ck, err := core.Run(env.CK34, 47, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := core.Run(env.RS119, 47, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	spCK := ckBase / ck.TotalSeconds
	spRS := rsBase / rs.TotalSeconds
	// Figure 6's headline: the larger dataset scales better.
	if spRS <= spCK {
		t.Errorf("RS119 speedup (%v) should exceed CK34's (%v)", spRS, spCK)
	}
	// Paper: 44.78x; we lock [42, 47.01].
	if spRS < 42 || spRS > 47.01 {
		t.Errorf("RS119 47-slave speedup = %v, want ~45", spRS)
	}
}

// runScores executes one CK34 run at 47 slaves and renders every
// collected pair's scores as canonical full-precision lines, sorted by
// pair — the golden form for bit-for-bit equivalence checks.
func runScores(t *testing.T, pr *core.PairResults, mut func(*core.Config)) ([]string, core.RunResult) {
	t.Helper()
	pairOf := make(map[*tmalign.Result]sched.Pair, len(pr.Pairs))
	for k, r := range pr.Results {
		pairOf[r] = pr.Pairs[k]
	}
	got := map[sched.Pair]*tmalign.Result{}
	cfg := core.DefaultConfig()
	cfg.Collect = func(r rckskel.Result) {
		res := r.Payload.(*tmalign.Result)
		got[pairOf[res]] = res
	}
	mut(&cfg)
	run, err := core.Run(pr, 47, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, 0, len(pr.Pairs))
	for _, p := range pr.Pairs { // canonical all-vs-all order
		res, ok := got[p]
		if !ok {
			t.Fatalf("pair %v never collected", p)
		}
		lines = append(lines, fmt.Sprintf("%d %d %.17g %.17g %.17g %d %.17g",
			p.I, p.J, res.TM1, res.TM2, res.RMSD, res.AlignedLen, res.SeqID))
	}
	return lines, run
}

// TestReproductionWireGoldenScores is this PR's acceptance test on the
// real CK34 dataset: the cached/batched/affinity wire model must
// produce byte-identical TM-align score dumps to the classic farm —
// fault-free and under a kill plan — while shipping >= 5x fewer
// input bytes and relieving the master's mailbox in the heavy-polling
// regime.
func TestReproductionWireGoldenScores(t *testing.T) {
	env, err := Load(cacheDir(t), "CK34")
	if err != nil {
		t.Fatal(err)
	}
	pr := env.CK34
	classic, base := runScores(t, pr, func(*core.Config) {})
	if len(classic) != 561 {
		t.Fatalf("classic run scored %d of 561 pairs", len(classic))
	}

	variants := []struct {
		name string
		mut  func(*core.Config)
	}{
		{"cached", func(c *core.Config) { c.CacheStructs = -1 }},
		{"cached+batched", func(c *core.Config) { c.CacheStructs = -1; c.Batch = 8 }},
		{"cached+batched+affinity", func(c *core.Config) { c.CacheStructs = -1; c.Batch = 8; c.Affinity = true }},
		{"cached+batched under faults", func(c *core.Config) {
			c.CacheStructs = -1
			c.Batch = 8
			c.Faults = &fault.Plan{Seed: 5, Kills: []fault.CoreFailure{
				{Core: 7, At: 0.3 * base.TotalSeconds},
				{Core: 22, At: 0.55 * base.TotalSeconds},
			}}
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			lines, run := runScores(t, pr, v.mut)
			if !reflect.DeepEqual(lines, classic) {
				for i := range lines {
					if lines[i] != classic[i] {
						t.Fatalf("score divergence at line %d:\n got %s\nwant %s", i, lines[i], classic[i])
					}
				}
				t.Fatal("score dumps differ")
			}
			if run.Wire == nil {
				t.Fatal("no wire report")
			}
		})
	}

	// Acceptance: >= 5x fewer input bytes over the NoC with the full
	// cached+batched+affinity wire.
	_, best := runScores(t, pr, func(c *core.Config) {
		c.CacheStructs = -1
		c.Batch = 8
		c.Affinity = true
	})
	if best.Wire.InputReduction < 5 {
		t.Errorf("CK34 input reduction = %.2fx, want >= 5x", best.Wire.InputReduction)
	}

	// Acceptance: lower peak master mailbox depth at polling 1e5.
	peak := func(mut func(*core.Config)) float64 {
		cfg := core.DefaultConfig()
		cfg.PollingScale = 1e5
		cfg.Metrics = metrics.New()
		mut(&cfg)
		r, err := core.Run(pr, 47, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.Metrics.PeakMailboxDepth
	}
	pBase := peak(func(*core.Config) {})
	pBatched := peak(func(c *core.Config) { c.CacheStructs = -1; c.Batch = 8 })
	if pBase <= 1 {
		t.Fatalf("heavy polling did not congest the classic master (peak %v)", pBase)
	}
	if pBatched >= pBase {
		t.Errorf("peak mailbox at polling 1e5: batched %v >= classic %v", pBatched, pBase)
	}
}

func rel(got, want float64) float64 {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}
