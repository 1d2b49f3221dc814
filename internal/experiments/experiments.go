// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V): the serial baselines (Table III), the
// rckAlign-vs-distributed comparison on CK34 (Table II / Figure 5), the
// scaling sweep on both datasets (Table IV / Figure 6) and the summary
// (Table V), plus the ablations DESIGN.md calls out (job ordering,
// the master tree). Each function returns a stats.Table whose rows
// place the reproduction next to the paper's published numbers.
package experiments

import (
	"fmt"
	"io"
	"path/filepath"

	"rckalign/internal/core"
	"rckalign/internal/costmodel"
	"rckalign/internal/dist"
	"rckalign/internal/farm"
	"rckalign/internal/fault"
	"rckalign/internal/interchip"
	"rckalign/internal/mcpsc"
	"rckalign/internal/metrics"
	"rckalign/internal/pairstore"
	"rckalign/internal/scc"
	"rckalign/internal/sched"
	"rckalign/internal/stats"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
	"rckalign/internal/trace"
)

// Paper-published values (seconds / speedups), keyed by slave count.
var (
	// Table II: CK34 all-vs-all, rckAlign vs distributed TM-align.
	paperT2RckAlign = map[int]float64{
		1: 2027, 3: 689, 5: 420, 7: 305, 9: 238, 11: 196, 13: 168, 15: 148,
		17: 132, 19: 120, 21: 109, 23: 101, 25: 94, 27: 88, 29: 83, 31: 79,
		33: 73, 35: 71, 37: 68, 39: 65, 41: 62, 43: 60, 45: 59, 47: 56,
	}
	paperT2Dist = map[int]float64{
		1: 5212, 3: 1704, 5: 854, 7: 569, 9: 511, 11: 452, 13: 382, 15: 332,
		17: 293, 19: 262, 21: 238, 23: 218, 25: 202, 27: 187, 29: 175, 31: 168,
		33: 174, 35: 173, 37: 145, 39: 143, 41: 132, 43: 126, 45: 122, 47: 120,
	}
	// Table III: serial baselines.
	paperT3 = map[string]map[string]float64{
		"AMD":  {"CK34": 406, "RS119": 7298},
		"P54C": {"CK34": 2029, "RS119": 28597},
	}
	// Table IV: rckAlign speedup/time by slave count.
	paperT4CK34Speedup = map[int]float64{
		1: 1, 3: 2.94, 5: 4.82, 7: 6.66, 9: 8.52, 11: 10.34, 13: 12.09,
		15: 13.74, 17: 15.36, 19: 16.89, 21: 18.53, 23: 20.03, 25: 21.56,
		27: 23.02, 29: 24.52, 31: 25.72, 33: 27.68, 35: 28.43, 37: 29.75,
		39: 30.97, 41: 32.60, 43: 33.59, 45: 34.45, 47: 36.17,
	}
	paperT4RS119Speedup = map[int]float64{
		1: 1, 3: 2.96, 5: 4.91, 7: 6.95, 9: 8.94, 11: 10.97, 13: 12.95,
		15: 14.88, 17: 16.76, 19: 18.64, 21: 20.59, 23: 22.52, 25: 24.52,
		27: 26.49, 29: 28.45, 31: 30.37, 33: 32.32, 35: 34.21, 37: 36.14,
		39: 38.01, 41: 39.74, 43: 41.49, 45: 43.40, 47: 44.78,
	}
	// Table V: summary.
	paperT5 = map[string][3]float64{ // AMD, P54C, SCC(47)
		"CK34":  {406, 2029, 56},
		"RS119": {7298, 28597, 640},
	}
)

// Env holds the precomputed pair results for both datasets.
type Env struct {
	CK34, RS119 *core.PairResults
}

// Load computes or loads both datasets' pair results. cacheDir may be
// empty to force recomputation (slow: minutes of host CPU).
func Load(cacheDir string, opt tmalign.Options) (*Env, error) {
	return LoadShared(cacheDir, opt, pairstore.New(0))
}

// LoadShared is Load backed by a caller-supplied pair store: on a
// disk-cache miss the native comparisons run through the store, so
// drivers that sweep several option sets or datasets in one process
// (see EXPERIMENTS.md) pay for each pair at most once.
func LoadShared(cacheDir string, opt tmalign.Options, store *pairstore.Store) (*Env, error) {
	env := &Env{}
	for _, d := range []struct {
		name string
		dst  **core.PairResults
	}{{"CK34", &env.CK34}, {"RS119", &env.RS119}} {
		ds, err := synth.ByName(d.name)
		if err != nil {
			return nil, err
		}
		path := ""
		if cacheDir != "" {
			path = filepath.Join(cacheDir, d.name+".gob")
		}
		pr, err := core.ComputeOrLoadShared(ds, opt, path, store)
		if err != nil {
			return nil, err
		}
		*d.dst = pr
	}
	return env, nil
}

// LoadCK34Only is Load for experiments that do not need RS119.
func LoadCK34Only(cacheDir string, opt tmalign.Options) (*Env, error) {
	ds, err := synth.ByName("CK34")
	if err != nil {
		return nil, err
	}
	path := ""
	if cacheDir != "" {
		path = filepath.Join(cacheDir, "CK34.gob")
	}
	pr, err := core.ComputeOrLoadShared(ds, opt, path, pairstore.New(0))
	if err != nil {
		return nil, err
	}
	return &Env{CK34: pr}, nil
}

// TableI renders the SCC configuration (the paper's Table I).
func TableI() *stats.Table {
	cfg := scc.DefaultConfig()
	tb := stats.NewTable("Table I: salient features of the SCC chip", "Feature", "Value")
	tb.AddRow("Core architecture", fmt.Sprintf("%dx%d mesh, %d %s cores per tile",
		cfg.TilesX, cfg.TilesY, cfg.CoresPerTile, "P54C (x86)"))
	tb.AddRow("Cores", fmt.Sprintf("%d @ %.0f MHz", cfg.NumCores(), cfg.CPU.FreqHz/1e6))
	tb.AddRow("Local cache", "16KB L1 + 256KB L2 per core (cost model)")
	tb.AddRow("MPB", fmt.Sprintf("%dKB shared MPB per tile (%dKB total)",
		cfg.MPBBytesPerTile/1024, cfg.MPBTotal()/1024))
	tb.AddRow("Memory controllers", fmt.Sprintf("%d iMCs", cfg.MemControllers))
	return tb
}

// TableII reproduces Table II / Figure 5: CK34 all-vs-all times for
// rckAlign vs the MCPC-driven distributed TM-align, by slave count.
func (e *Env) TableII() (*stats.Table, error) {
	tb := stats.NewTable(
		"Table II / Figure 5: CK34 all-vs-all, rckAlign vs distributed TM-align (seconds)",
		"Slaves", "rckAlign", "paper", "distributed", "paper", "dist/rck")
	counts := core.OddSlaveCounts(47)
	rck, err := core.RunSweep(e.CK34, counts, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	dst, err := dist.RunSweep(e.CK34, counts, dist.DefaultConfig())
	if err != nil {
		return nil, err
	}
	for i, n := range counts {
		tb.AddRowf(n,
			rck[i].TotalSeconds, paperT2RckAlign[n],
			dst[i].TotalSeconds, paperT2Dist[n],
			dst[i].TotalSeconds/rck[i].TotalSeconds)
	}
	return tb, nil
}

// TableIII reproduces the serial baselines on both CPU profiles.
func (e *Env) TableIII() *stats.Table {
	tb := stats.NewTable(
		"Table III: serial all-vs-all TM-align baselines (seconds)",
		"Processor", "Dataset", "Measured", "Paper")
	for _, row := range []struct {
		cpu  costmodel.CPU
		key  string
		pr   *core.PairResults
		name string
	}{
		{costmodel.AMD24(), "AMD", e.CK34, "CK34"},
		{costmodel.AMD24(), "AMD", e.RS119, "RS119"},
		{costmodel.P54C(), "P54C", e.CK34, "CK34"},
		{costmodel.P54C(), "P54C", e.RS119, "RS119"},
	} {
		if row.pr == nil {
			continue
		}
		tb.AddRowf(row.cpu.Name, row.name, row.pr.SerialSeconds(row.cpu), paperT3[row.key][row.name])
	}
	return tb
}

// TableIV reproduces Table IV / Figure 6: rckAlign time and speedup by
// slave count for both datasets (speedup relative to one SCC core).
func (e *Env) TableIV() (*stats.Table, error) {
	tb := stats.NewTable(
		"Table IV / Figure 6: rckAlign scaling (speedup vs 1 SCC core)",
		"Slaves",
		"CK34 s", "CK34 speedup", "paper",
		"RS119 s", "RS119 speedup", "paper")
	counts := core.OddSlaveCounts(47)
	cfg := core.DefaultConfig()
	ck, err := core.RunSweep(e.CK34, counts, cfg)
	if err != nil {
		return nil, err
	}
	baseCK := e.CK34.SerialSeconds(costmodel.P54C())
	var rs []core.RunResult
	baseRS := 0.0
	if e.RS119 != nil {
		rs, err = core.RunSweep(e.RS119, counts, cfg)
		if err != nil {
			return nil, err
		}
		baseRS = e.RS119.SerialSeconds(costmodel.P54C())
	}
	for i, n := range counts {
		row := []any{n, ck[i].TotalSeconds, baseCK / ck[i].TotalSeconds, paperT4CK34Speedup[n]}
		if rs != nil {
			row = append(row, rs[i].TotalSeconds, baseRS/rs[i].TotalSeconds, paperT4RS119Speedup[n])
		} else {
			row = append(row, "-", "-", paperT4RS119Speedup[n])
		}
		tb.AddRowf(row...)
	}
	return tb, nil
}

// TableV reproduces the summary comparison (Table V): serial AMD, serial
// P54C and rckAlign with all 47 slaves.
func (e *Env) TableV() (*stats.Table, error) {
	tb := stats.NewTable(
		"Table V: all-vs-all summary (seconds)",
		"Dataset", "AMD@2.4GHz", "paper", "P54C@800MHz", "paper", "SCC 47 slaves", "paper",
		"speedup vs AMD", "speedup vs P54C")
	for _, d := range []struct {
		name string
		pr   *core.PairResults
	}{{"CK34", e.CK34}, {"RS119", e.RS119}} {
		if d.pr == nil {
			continue
		}
		r, err := core.Run(d.pr, 47, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		amd := d.pr.SerialSeconds(costmodel.AMD24())
		p54 := d.pr.SerialSeconds(costmodel.P54C())
		ref := paperT5[d.name]
		tb.AddRowf(d.name, amd, ref[0], p54, ref[1], r.TotalSeconds, ref[2],
			amd/r.TotalSeconds, p54/r.TotalSeconds)
	}
	return tb, nil
}

// Figure5 renders the paper's Figure 5 as an ASCII plot: CK34
// all-vs-all time (log scale) vs slave cores for rckAlign and the
// distributed baseline.
func (e *Env) Figure5(width, height int) (string, error) {
	counts := core.OddSlaveCounts(47)
	rck, err := core.RunSweep(e.CK34, counts, core.DefaultConfig())
	if err != nil {
		return "", err
	}
	dst, err := dist.RunSweep(e.CK34, counts, dist.DefaultConfig())
	if err != nil {
		return "", err
	}
	p := stats.NewPlot("Figure 5: CK34 all-vs-all time vs slave cores (log scale)",
		"number of cores", "time in sec")
	p.LogY = true
	var xs, yr, yd []float64
	for i, n := range counts {
		xs = append(xs, float64(n))
		yr = append(yr, rck[i].TotalSeconds)
		yd = append(yd, dst[i].TotalSeconds)
	}
	if err := p.Add(stats.Series{Name: "TM-align (distributed)", Marker: '+', X: xs, Y: yd}); err != nil {
		return "", err
	}
	if err := p.Add(stats.Series{Name: "rckAlign", Marker: '*', X: xs, Y: yr}); err != nil {
		return "", err
	}
	return p.Render(width, height), nil
}

// Figure6 renders the paper's Figure 6: rckAlign speedup vs slave cores
// for both datasets.
func (e *Env) Figure6(width, height int) (string, error) {
	counts := core.OddSlaveCounts(47)
	p := stats.NewPlot("Figure 6: rckAlign speedup vs slave cores",
		"number of cores", "speedup factor")
	for _, d := range []struct {
		name   string
		marker byte
		pr     *core.PairResults
	}{{"RS119", '#', e.RS119}, {"CK34", '*', e.CK34}} {
		if d.pr == nil {
			continue
		}
		rs, err := core.RunSweep(d.pr, counts, core.DefaultConfig())
		if err != nil {
			return "", err
		}
		base := d.pr.SerialSeconds(costmodel.P54C())
		var xs, ys []float64
		for i, n := range counts {
			xs = append(xs, float64(n))
			ys = append(ys, base/rs[i].TotalSeconds)
		}
		if err := p.Add(stats.Series{Name: d.name, Marker: d.marker, X: xs, Y: ys}); err != nil {
			return "", err
		}
	}
	return p.Render(width, height), nil
}

// SchedulingAblation quantifies the paper's load-balancing future-work
// item: FIFO vs LPT vs SPT vs Random job ordering at several core
// counts (CK34).
func (e *Env) SchedulingAblation() (*stats.Table, error) {
	tb := stats.NewTable(
		"Ablation: job ordering (CK34 all-vs-all, seconds)",
		"Slaves", "FIFO", "LPT", "SPT", "Random", "LPT gain")
	for _, n := range []int{7, 15, 31, 47} {
		times := map[sched.Order]float64{}
		for _, o := range []sched.Order{sched.FIFO, sched.LPT, sched.SPT, sched.Random} {
			cfg := core.DefaultConfig()
			cfg.Order = o
			cfg.OrderSeed = 1
			r, err := core.Run(e.CK34, n, cfg)
			if err != nil {
				return nil, err
			}
			times[o] = r.TotalSeconds
		}
		tb.AddRowf(n, times[sched.FIFO], times[sched.LPT], times[sched.SPT], times[sched.Random],
			fmt.Sprintf("%.1f%%", 100*(times[sched.FIFO]-times[sched.LPT])/times[sched.FIFO]))
	}
	return tb, nil
}

// masterTree runs pr with `workers` slave cores spread evenly over
// `chips` chips — one master per chip, results aggregated up the default
// gather tree — joined by the ideal interconnect, so the board tier
// costs what an on-die hop would: the paper's proposed hierarchy of
// masters with nothing but the tree itself changed. One chip is the
// flat single master.
func masterTree(pr *core.PairResults, workers, chips int, cfg core.Config) (core.RunResult, error) {
	ideal, err := interchip.Profile("ideal")
	if err != nil {
		return core.RunResult{}, err
	}
	return core.RunMultiChip(pr, workers/chips, core.MultiChipConfig{Config: cfg, Chips: chips, Interchip: ideal})
}

// MasterTreeAblation compares the flat single master against two- and
// four-master trees (CK34), the paper's proposed fix for the master
// bottleneck.
func (e *Env) MasterTreeAblation() (*stats.Table, error) {
	tb := stats.NewTable(
		"Ablation: master tree (CK34 all-vs-all, seconds; worker-slave count held equal, ideal interconnect)",
		"Workers", "Flat", "2 masters", "4 masters")
	for _, n := range []int{8, 16, 32, 40} {
		row := []any{n}
		for _, chips := range []int{1, 2, 4} {
			r, err := masterTree(e.CK34, n, chips, core.DefaultConfig())
			if err != nil {
				return nil, err
			}
			row = append(row, r.TotalSeconds)
		}
		tb.AddRowf(row...)
	}
	return tb, nil
}

// FasterCoresAblation tests the conjecture the paper closes with: "it
// is possible that the single master strategy would become the
// bottleneck, if slave processes were running on faster cores", and
// that a hierarchy of masters would relieve it. Core clocks are scaled
// 1x..65536x while the mesh stays fixed; efficiency at 47 slaves is
// reported for the flat farm next to a 4-master tree on the same 48
// total cores (4 masters + 44 workers).
func (e *Env) FasterCoresAblation() (*stats.Table, error) {
	tb := stats.NewTable(
		"Ablation: faster cores (CK34, 47 slave cores, mesh speed fixed)",
		"Core clock", "Flat time (s)", "Flat efficiency", "Master busy", "Tree time (s)")
	for _, mult := range []float64{1, 16, 256, 4096, 65536} {
		cfg := core.DefaultConfig()
		cfg.Chip.CPU.FreqHz *= mult
		rec := trace.New()
		cfg.Trace = rec
		serial := e.CK34.SerialSeconds(cfg.Chip.CPU)
		r, err := core.Run(e.CK34, 47, cfg)
		if err != nil {
			return nil, err
		}
		masterBusy := 0.0
		if r.TotalSeconds > 0 {
			masterBusy = r.CoreBusySeconds[cfg.Chip.CoreName(cfg.MasterCore)] / r.TotalSeconds
		}
		tcfg := cfg
		tcfg.Trace = nil
		rt, err := masterTree(e.CK34, 44, 4, tcfg)
		if err != nil {
			return nil, err
		}
		eff := serial / r.TotalSeconds / 47
		// Four significant digits: the makespans span five decades.
		tb.AddRowf(fmt.Sprintf("%.1f GHz", cfg.Chip.CPU.FreqHz/1e9),
			fmt.Sprintf("%.4g", r.TotalSeconds), eff, fmt.Sprintf("%.1f%%", 100*masterBusy), fmt.Sprintf("%.4g", rt.TotalSeconds))
	}
	return tb, nil
}

// ResilienceSweep quantifies the fault-tolerant farm's degradation on
// e.CK34: the all-vs-all task on 47 slaves with k slave cores
// fail-stopped at staggered points of the run. While any slave
// survives, every pair must still be scored (Lost stays 0); the
// makespan shows what the deadline-driven recovery costs.
func (e *Env) ResilienceSweep() (*stats.Table, error) { return ResilienceSweep(e.CK34) }

// ResilienceSweep is the underlying sweep over any workload (tests use
// a synthetic CK34-sized one, see core.SynthPairResults).
func ResilienceSweep(pr *core.PairResults) (*stats.Table, error) {
	const slaves = 47
	base, err := core.Run(pr, slaves, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	t0 := base.TotalSeconds
	tb := stats.NewTable(
		fmt.Sprintf("Resilience: %s all-vs-all, %d slaves, k cores killed mid-run (fault-free makespan %.1f s)",
			pr.Dataset.Name, slaves, t0),
		"Killed", "Time (s)", "Slowdown", "Timeouts", "Retries", "Reassigned", "Lost")
	killed := []int{0, 1, 2, 4, 8}
	runs, err := farm.Sweep(killed, false, func(k int) (core.RunResult, error) {
		plan := &fault.Plan{Seed: 1}
		for i := 0; i < k; i++ {
			// Victims spread over the slave range, deaths staggered over
			// the first 80% of the fault-free makespan.
			plan.Kills = append(plan.Kills, fault.CoreFailure{
				Core: 1 + (i*11)%slaves,
				At:   0.8 * t0 * float64(i+1) / float64(k+1),
			})
		}
		cfg := core.DefaultConfig()
		cfg.Faults = plan
		return core.Run(pr, slaves, cfg)
	})
	if err != nil {
		return nil, err
	}
	for i, r := range runs {
		f := r.Faults
		tb.AddRowf(killed[i], r.TotalSeconds, r.TotalSeconds/t0,
			f.Timeouts, f.Retries, f.Reassigned, f.LostJobs)
	}
	return tb, nil
}

// CacheBatchAblation quantifies the structure-cache + batched-dispatch
// wire model on e.CK34 (and e.RS119 when loaded): input bytes over the
// NoC, cache hit rate, and the makespan/mailbox effect at both the
// paper's polling cost and the master-bottleneck regime (polling 1e5).
func (e *Env) CacheBatchAblation() ([]*stats.Table, error) {
	var out []*stats.Table
	for _, pr := range []*core.PairResults{e.CK34, e.RS119} {
		if pr == nil {
			continue
		}
		tb, err := CacheBatchAblation(pr)
		if err != nil {
			return nil, err
		}
		out = append(out, tb)
	}
	return out, nil
}

// CacheBatchAblation is the underlying sweep over any workload (tests
// use a synthetic CK34-sized one, see core.SynthPairResults): baseline
// vs cached vs cached+batched vs cached+batched+affinity at 47 slaves.
func CacheBatchAblation(pr *core.PairResults) (*stats.Table, error) {
	const slaves = 47
	// The classic wire ships both structures' coordinates per pair.
	classicBytes := int64(0)
	for _, p := range pr.Pairs {
		classicBytes += int64(core.StructBytes(pr.Dataset.Structures[p.I].Len()) +
			core.StructBytes(pr.Dataset.Structures[p.J].Len()))
	}
	tb := stats.NewTable(
		fmt.Sprintf("Ablation: structure caching + batched dispatch (%s all-vs-all, %d slaves)",
			pr.Dataset.Name, slaves),
		"Config", "Time (s)", "Time @1e5 poll", "Peak Mbox @1e5", "Input MB", "Reduction", "Hit rate")
	for _, row := range []struct {
		name string
		mut  func(*core.Config)
	}{
		{"baseline", func(c *core.Config) {}},
		{"cached", func(c *core.Config) { c.CacheStructs = -1 }},
		{"cached+batched", func(c *core.Config) { c.CacheStructs = -1; c.Batch = 8 }},
		{"cached+batched+affinity", func(c *core.Config) { c.CacheStructs = -1; c.Batch = 8; c.Affinity = true }},
	} {
		cfg := core.DefaultConfig()
		row.mut(&cfg)
		r, err := core.Run(pr, slaves, cfg)
		if err != nil {
			return nil, err
		}
		cfgP := cfg
		cfgP.PollingScale = 1e5
		cfgP.Metrics = metrics.New()
		rp, err := core.Run(pr, slaves, cfgP)
		if err != nil {
			return nil, err
		}
		peak := 0.0
		if rp.Metrics != nil {
			peak = rp.Metrics.PeakMailboxDepth
		}
		inputMB := float64(classicBytes) / 1e6
		reduction, hitRate := 1.0, "-"
		if w := r.Wire; w != nil {
			inputMB = float64(w.ShippedInputBytes) / 1e6
			reduction = w.InputReduction
			hitRate = fmt.Sprintf("%.1f%%", 100*w.CacheHitRate)
		}
		tb.AddRowf(row.name, r.TotalSeconds, rp.TotalSeconds,
			fmt.Sprintf("%.0f", peak), inputMB, reduction, hitRate)
	}
	return tb, nil
}

// ChipScalingSweep runs the multi-chip sharded farm over both datasets
// at 1/2/4/8 chips (47 slaves each), the scale-out scaling curve.
func (e *Env) ChipScalingSweep() ([]*stats.Table, error) {
	var out []*stats.Table
	for _, pr := range []*core.PairResults{e.CK34, e.RS119} {
		if pr == nil {
			continue
		}
		tb, err := ChipScalingSweep(pr, 47, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, tb)
	}
	return out, nil
}

// ChipScalingSweep is the underlying sweep over any workload: the same
// all-vs-all task sharded across each chip count (nil = 1, 2, 4, 8) at
// slavesPerChip slaves per chip. Speedup and efficiency are relative to
// the first (usually 1-chip) point, so efficiency reads directly as
// "how much of the added silicon the root master wastes"; the peak
// mailbox and root inbox columns show where the single root saturates,
// and the inter-/intra-chip MB columns split the wire volume by
// interconnect tier.
func ChipScalingSweep(pr *core.PairResults, slavesPerChip int, chipCounts []int) (*stats.Table, error) {
	if len(chipCounts) == 0 {
		chipCounts = []int{1, 2, 4, 8}
	}
	tb := stats.NewTable(
		fmt.Sprintf("Scaling: multi-chip sharded farm (%s all-vs-all, %d slaves/chip)",
			pr.Dataset.Name, slavesPerChip),
		"Chips", "Slaves", "Time (s)", "Speedup", "Efficiency",
		"Peak Mbox", "Root Inbox", "Inter MB", "Intra MB")
	// Each point fills a registry of its own (the one-chip wire volume
	// comes from it), so the points are independent.
	type point struct {
		core.RunResult
		sendBytes float64
	}
	points, err := farm.Sweep(chipCounts, false, func(n int) (point, error) {
		reg := metrics.New()
		cfg := core.MultiChipConfig{Config: core.DefaultConfig(), Chips: n}
		cfg.Metrics = reg
		r, err := core.RunMultiChip(pr, slavesPerChip, cfg)
		return point{r, reg.Counter("rcce.send.bytes").Value()}, err
	})
	if err != nil {
		return nil, err
	}
	base, baseChips := 0.0, 0
	for i, n := range chipCounts {
		r := points[i].RunResult
		if base == 0 {
			base, baseChips = r.TotalSeconds, n
		}
		speedup := base / r.TotalSeconds
		efficiency := speedup * float64(baseChips) / float64(n)
		peakMbox := 0.0
		if r.Metrics != nil {
			peakMbox = r.Metrics.PeakMailboxDepth
		}
		rootInbox, interMB := "-", "-"
		intraMB := points[i].sendBytes / 1e6
		if ic := r.Interchip; ic != nil {
			rootInbox = fmt.Sprintf("%d", ic.PeakRootInbox)
			interMB = fmt.Sprintf("%.2f", float64(ic.Bytes)/1e6)
			intraMB = float64(ic.IntraChipBytes) / 1e6
		}
		tb.AddRowf(n, n*slavesPerChip, r.TotalSeconds, speedup, efficiency,
			fmt.Sprintf("%.0f", peakMbox), rootInbox, interMB, intraMB)
	}
	return tb, nil
}

// MCPSCPartitionAblation studies the paper's MC-PSC open question —
// how to split the chip's cores among comparison methods of very
// different complexity — by running a multi-criteria all-vs-all task
// (TM-align + gapless-RMSD + contact-overlap) under equal and
// cost-proportional partitions of 12 slave cores.
func MCPSCPartitionAblation() (*stats.Table, error) {
	ds := synth.Small(10, 2468)
	methods := []mcpsc.Method{
		mcpsc.TMAlign{Opt: tmalign.FastOptions()},
		mcpsc.GaplessRMSD{},
		mcpsc.ContactOverlap{},
	}
	tb := stats.NewTable(
		"Ablation: MC-PSC core partitioning (10 chains, 3 methods, 12 slaves)",
		"Strategy", "Partition", "Makespan (s)")
	// One pair store across both strategies: every (method, pair) kernel
	// is evaluated natively once, then the second run replays memoized
	// scores — O(strategies x pairs) native work becomes O(pairs).
	cfg := mcpsc.DefaultRunConfig()
	cfg.Store = pairstore.New(0)
	for _, strat := range []struct {
		name string
		part []int
	}{
		{"equal", mcpsc.EqualPartition(len(methods), 12)},
		{"proportional", mcpsc.ProportionalPartition(ds, methods, 12, costmodel.P54C())},
	} {
		r, err := mcpsc.RunAllVsAll(ds, methods, strat.part, cfg)
		if err != nil {
			return nil, err
		}
		tb.AddRowf(strat.name, fmt.Sprintf("%v", strat.part), r.TotalSeconds)
	}
	return tb, nil
}

// WriteAll regenerates every table (and the figure series, which share
// the tables' data) to w.
func (e *Env) WriteAll(w io.Writer) error {
	fmt.Fprintln(w, TableI().String())
	t2, err := e.TableII()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, t2.String())
	fmt.Fprintln(w, e.TableIII().String())
	t4, err := e.TableIV()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, t4.String())
	t5, err := e.TableV()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, t5.String())
	sa, err := e.SchedulingAblation()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, sa.String())
	ha, err := e.MasterTreeAblation()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, ha.String())
	fc, err := e.FasterCoresAblation()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, fc.String())
	mp, err := MCPSCPartitionAblation()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, mp.String())
	rs, err := e.ResilienceSweep()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, rs.String())
	cb, err := e.CacheBatchAblation()
	if err != nil {
		return err
	}
	for _, tb := range cb {
		fmt.Fprintln(w, tb.String())
	}
	return nil
}
