// Package experiments is the one registry of every table and figure in
// EXPERIMENTS.md: the paper's evaluation (Section V) — the SCC
// configuration (Table I), the serial baselines (Table III), rckAlign
// against the distributed baseline on CK34 (Table II / Figure 5), the
// scaling sweep on both datasets (Table IV / Figure 6) and the summary
// (Table V) — plus the ablations and scale-out sweeps DESIGN.md calls
// out. cmd/benchtables is the only runner; the registry's full
// deterministic output is committed as testdata/experiments.golden.txt
// and every block of it appears verbatim in EXPERIMENTS.md (both
// test-enforced), so a new table is one more Experiment here.
package experiments

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"

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

// Experiment is one regenerable block of EXPERIMENTS.md.
type Experiment struct {
	// Name selects the entry (benchtables -only).
	Name string
	// Datasets names the pair results Run dereferences ("CK34",
	// "RS119"); the runner loads exactly these.
	Datasets []string
	// HostTimed marks output that depends on host wall-clock time: it
	// runs only when named and is not part of the golden.
	HostTimed bool
	// Run renders the entry's tables or figure.
	Run func(*Env) (string, error)
}

var (
	ck34 = []string{"CK34"}
	both = []string{"CK34", "RS119"}
)

// registry lists every experiment, in the order benchtables prints them.
var registry = []Experiment{
	{Name: "table1", Run: func(*Env) (string, error) { return tableI(), nil }},
	{Name: "table2", Datasets: ck34, Run: (*Env).tableII},
	{Name: "table3", Datasets: both, Run: (*Env).tableIII},
	{Name: "table4", Datasets: both, Run: (*Env).tableIV},
	{Name: "table5", Datasets: both, Run: (*Env).tableV},
	{Name: "figure5", Datasets: ck34, Run: (*Env).figure5},
	{Name: "figure6", Datasets: both, Run: (*Env).figure6},
	{Name: "ordering", Datasets: ck34, Run: (*Env).orderingAblation},
	{Name: "polling", Datasets: ck34, Run: (*Env).pollingAblation},
	{Name: "mastertree", Datasets: ck34, Run: (*Env).masterTreeAblation},
	{Name: "fastercores", Datasets: ck34, Run: (*Env).fasterCoresAblation},
	{Name: "mcpsc", Run: func(*Env) (string, error) { return mcpscPartitionAblation() }},
	{Name: "resilience", Datasets: ck34, Run: func(e *Env) (string, error) { return resilienceSweep(e.CK34) }},
	{Name: "cachebatch", Datasets: both, Run: func(e *Env) (string, error) {
		return e.perDataset(cacheBatchAblation)
	}},
	{Name: "chipscaling", Datasets: both, Run: func(e *Env) (string, error) {
		return e.perDataset(func(pr *core.PairResults) (string, error) { return chipScalingSweep(pr, 47, []int{1, 2, 4, 8}) })
	}},
	{Name: "serveload", HostTimed: true, Run: func(*Env) (string, error) {
		out, _, err := serveLoadSweep(defaultServeLoadSpec(), defaultServeLoadConfigs())
		return out, err
	}},
}

// Registry returns every experiment, in the order benchtables prints
// them.
func Registry() []Experiment { return registry }

// Select resolves experiment names to entries, in registry order. No
// names selects every deterministic entry; HostTimed ones run only when
// named. An unknown name is an error that lists the names.
func Select(names []string) ([]Experiment, error) {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var sel []Experiment
	var all []string
	for _, x := range registry {
		all = append(all, x.Name)
		if want[x.Name] || len(names) == 0 && !x.HostTimed {
			sel = append(sel, x)
		}
		delete(want, x.Name)
	}
	for _, n := range names {
		if want[n] {
			return nil, fmt.Errorf("unknown experiment %q (have %s)", n, strings.Join(all, ", "))
		}
	}
	return sel, nil
}

// Env holds the pair results the selected experiments replay, and the
// slave-count sweeps several of them share.
type Env struct {
	CK34, RS119 *core.PairResults

	sweeps map[*core.PairResults][]core.RunResult
	dist   []dist.RunResult
}

// Load computes or loads the named datasets' pair results ("CK34",
// "RS119"; repeats are loaded once) into a fresh Env. cacheDir may be
// empty to force recomputation (slow: minutes of host CPU).
func Load(cacheDir string, opt tmalign.Options, datasets ...string) (*Env, error) {
	env := &Env{}
	store := pairstore.New(0)
	for _, name := range datasets {
		var dst **core.PairResults
		switch name {
		case "CK34":
			dst = &env.CK34
		case "RS119":
			dst = &env.RS119
		default:
			return nil, fmt.Errorf("experiments: no dataset %q", name)
		}
		if *dst != nil {
			continue
		}
		ds, err := synth.ByName(name)
		if err != nil {
			return nil, err
		}
		path := ""
		if cacheDir != "" {
			path = filepath.Join(cacheDir, name+".gob")
		}
		if *dst, err = core.ComputeOrLoadShared(ds, opt, path, store); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// Run renders the experiments to w in order, one blank line between
// blocks, trailing blanks trimmed from every line (the golden and
// EXPERIMENTS.md hold exactly these bytes).
func Run(w io.Writer, env *Env, exps []Experiment) error {
	for i, x := range exps {
		out, err := x.Run(env)
		if err != nil {
			return fmt.Errorf("%s: %w", x.Name, err)
		}
		lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
		for k, l := range lines {
			lines[k] = strings.TrimRight(l, " ")
		}
		sep := ""
		if i > 0 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%s%s\n", sep, strings.Join(lines, "\n")); err != nil {
			return err
		}
	}
	return nil
}

// sweepCounts is the paper's slave-count sweep 1, 3, ..., 47.
var sweepCounts = core.OddSlaveCounts(47)

// sweep returns pr's rckAlign run at every sweepCounts point, simulated
// once per Env: Tables II and IV and Figures 5 and 6 all read it.
func (e *Env) sweep(pr *core.PairResults) ([]core.RunResult, error) {
	if rs, ok := e.sweeps[pr]; ok {
		return rs, nil
	}
	rs, err := core.RunSweep(pr, sweepCounts, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if e.sweeps == nil {
		e.sweeps = map[*core.PairResults][]core.RunResult{}
	}
	e.sweeps[pr] = rs
	return rs, nil
}

// distSweep is sweep for the distributed baseline on CK34 (Table II and
// Figure 5).
func (e *Env) distSweep() ([]dist.RunResult, error) {
	if e.dist == nil {
		rs, err := dist.RunSweep(e.CK34, sweepCounts, dist.DefaultConfig())
		if err != nil {
			return nil, err
		}
		e.dist = rs
	}
	return e.dist, nil
}

// perDataset renders one table per dataset, CK34 then RS119.
func (e *Env) perDataset(table func(*core.PairResults) (string, error)) (string, error) {
	var b strings.Builder
	for i, pr := range []*core.PairResults{e.CK34, e.RS119} {
		out, err := table(pr)
		if err != nil {
			return "", err
		}
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(out)
	}
	return b.String(), nil
}

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

// tableI renders the SCC configuration (the paper's Table I).
func tableI() string {
	cfg := scc.DefaultConfig()
	tb := stats.NewTable("Table I: salient features of the SCC chip", "Feature", "Value")
	tb.AddRow("Core architecture", fmt.Sprintf("%dx%d mesh, %d %s cores per tile",
		cfg.TilesX, cfg.TilesY, cfg.CoresPerTile, "P54C (x86)"))
	tb.AddRow("Cores", fmt.Sprintf("%d @ %.0f MHz", cfg.NumCores(), cfg.CPU.FreqHz/1e6))
	tb.AddRow("Local cache", "16KB L1 + 256KB L2 per core (cost model)")
	tb.AddRow("MPB", fmt.Sprintf("%dKB shared MPB per tile (%dKB total)",
		cfg.MPBBytesPerTile/1024, cfg.MPBTotal()/1024))
	tb.AddRow("Memory controllers", fmt.Sprintf("%d iMCs", cfg.MemControllers))
	return tb.String()
}

// tableII reproduces Table II: CK34 all-vs-all times for rckAlign vs the
// MCPC-driven distributed TM-align, by slave count.
func (e *Env) tableII() (string, error) {
	tb := stats.NewTable(
		"Table II / Figure 5: CK34 all-vs-all, rckAlign vs distributed TM-align (seconds)",
		"Slaves", "rckAlign", "paper", "distributed", "paper", "dist/rck")
	rck, err := e.sweep(e.CK34)
	if err != nil {
		return "", err
	}
	dst, err := e.distSweep()
	if err != nil {
		return "", err
	}
	for i, n := range sweepCounts {
		tb.AddRowf(n,
			rck[i].TotalSeconds, paperT2RckAlign[n],
			dst[i].TotalSeconds, paperT2Dist[n],
			dst[i].TotalSeconds/rck[i].TotalSeconds)
	}
	return tb.String(), nil
}

// tableIII reproduces the serial baselines on both CPU profiles.
func (e *Env) tableIII() (string, error) {
	tb := stats.NewTable(
		"Table III: serial all-vs-all TM-align baselines (seconds)",
		"Processor", "Dataset", "Measured", "Paper")
	for _, row := range []struct {
		cpu costmodel.CPU
		key string
		pr  *core.PairResults
	}{
		{costmodel.AMD24(), "AMD", e.CK34},
		{costmodel.AMD24(), "AMD", e.RS119},
		{costmodel.P54C(), "P54C", e.CK34},
		{costmodel.P54C(), "P54C", e.RS119},
	} {
		name := row.pr.Dataset.Name
		tb.AddRowf(row.cpu.Name, name, row.pr.SerialSeconds(row.cpu), paperT3[row.key][name])
	}
	return tb.String(), nil
}

// tableIV reproduces Table IV: rckAlign time and speedup by slave count
// for both datasets (speedup relative to one SCC core).
func (e *Env) tableIV() (string, error) {
	tb := stats.NewTable(
		"Table IV / Figure 6: rckAlign scaling (speedup vs 1 SCC core)",
		"Slaves",
		"CK34 s", "CK34 speedup", "paper",
		"RS119 s", "RS119 speedup", "paper")
	ck, err := e.sweep(e.CK34)
	if err != nil {
		return "", err
	}
	rs, err := e.sweep(e.RS119)
	if err != nil {
		return "", err
	}
	baseCK := e.CK34.SerialSeconds(costmodel.P54C())
	baseRS := e.RS119.SerialSeconds(costmodel.P54C())
	for i, n := range sweepCounts {
		tb.AddRowf(n,
			ck[i].TotalSeconds, baseCK/ck[i].TotalSeconds, paperT4CK34Speedup[n],
			rs[i].TotalSeconds, baseRS/rs[i].TotalSeconds, paperT4RS119Speedup[n])
	}
	return tb.String(), nil
}

// tableV reproduces the summary comparison (Table V): serial AMD, serial
// P54C and rckAlign with all 47 slaves.
func (e *Env) tableV() (string, error) {
	tb := stats.NewTable(
		"Table V: all-vs-all summary (seconds)",
		"Dataset", "AMD@2.4GHz", "paper", "P54C@800MHz", "paper", "SCC 47 slaves", "paper",
		"speedup vs AMD", "speedup vs P54C")
	for _, pr := range []*core.PairResults{e.CK34, e.RS119} {
		r, err := core.Run(pr, 47, core.DefaultConfig())
		if err != nil {
			return "", err
		}
		amd := pr.SerialSeconds(costmodel.AMD24())
		p54 := pr.SerialSeconds(costmodel.P54C())
		ref := paperT5[pr.Dataset.Name]
		tb.AddRowf(pr.Dataset.Name, amd, ref[0], p54, ref[1], r.TotalSeconds, ref[2],
			amd/r.TotalSeconds, p54/r.TotalSeconds)
	}
	return tb.String(), nil
}

// figureW x figureH is the interior plotting area of Figures 5 and 6.
const figureW, figureH = 64, 20

// figure5 renders the paper's Figure 5 as an ASCII plot: CK34
// all-vs-all time (log scale) vs slave cores for rckAlign and the
// distributed baseline.
func (e *Env) figure5() (string, error) {
	rck, err := e.sweep(e.CK34)
	if err != nil {
		return "", err
	}
	dst, err := e.distSweep()
	if err != nil {
		return "", err
	}
	p := stats.NewPlot("Figure 5: CK34 all-vs-all time vs slave cores (log scale)",
		"number of cores", "time in sec")
	p.LogY = true
	var xs, yr, yd []float64
	for i, n := range sweepCounts {
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
	return p.Render(figureW, figureH), nil
}

// figure6 renders the paper's Figure 6: rckAlign speedup vs slave cores
// for both datasets.
func (e *Env) figure6() (string, error) {
	p := stats.NewPlot("Figure 6: rckAlign speedup vs slave cores",
		"number of cores", "speedup factor")
	for _, d := range []struct {
		marker byte
		pr     *core.PairResults
	}{{'#', e.RS119}, {'*', e.CK34}} {
		rs, err := e.sweep(d.pr)
		if err != nil {
			return "", err
		}
		base := d.pr.SerialSeconds(costmodel.P54C())
		var xs, ys []float64
		for i, n := range sweepCounts {
			xs = append(xs, float64(n))
			ys = append(ys, base/rs[i].TotalSeconds)
		}
		if err := p.Add(stats.Series{Name: d.pr.Dataset.Name, Marker: d.marker, X: xs, Y: ys}); err != nil {
			return "", err
		}
	}
	return p.Render(figureW, figureH), nil
}

// orderingAblation quantifies the paper's load-balancing future-work
// item: FIFO vs LPT vs SPT vs Random job ordering at several core
// counts (CK34).
func (e *Env) orderingAblation() (string, error) {
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
				return "", err
			}
			times[o] = r.TotalSeconds
		}
		tb.AddRowf(n, times[sched.FIFO], times[sched.LPT], times[sched.SPT], times[sched.Random],
			fmt.Sprintf("%.1f%%", 100*(times[sched.FIFO]-times[sched.LPT])/times[sched.FIFO]))
	}
	return tb.String(), nil
}

// pollingAblation scales the master's round-robin polling discovery
// cost on CK34 at 47 slaves: 0 is an ideal event-driven master, 1 the
// paper's busy polling, and the large scales emulate ever finer-grained
// jobs until the single master is the bottleneck.
func (e *Env) pollingAblation() (string, error) {
	const slaves = 47
	tb := stats.NewTable(
		fmt.Sprintf("Ablation: master polling cost (CK34 all-vs-all, %d slaves)", slaves),
		"Polling scale", "Time (s)", "Efficiency", "Peak Mbox", "Collect wait (s)", "Master busy (s)")
	serial := e.CK34.SerialSeconds(costmodel.P54C())
	for _, scale := range []float64{0, 1, 2e4, 1e5} {
		cfg := core.DefaultConfig()
		cfg.PollingScale = scale
		cfg.Metrics = metrics.New()
		r, err := core.Run(e.CK34, slaves, cfg)
		if err != nil {
			return "", err
		}
		label := fmt.Sprintf("%g", scale)
		switch scale {
		case 0:
			label += " (event-driven)"
		case 1:
			label += " (paper)"
		}
		tb.AddRowf(label, r.TotalSeconds, serial/r.TotalSeconds/slaves,
			fmt.Sprintf("%.0f", r.Metrics.PeakMailboxDepth),
			r.Metrics.JobStages["collect_wait"].TotalSeconds,
			r.CoreBusySeconds[cfg.Chip.CoreName(0)])
	}
	return tb.String(), nil
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

// masterTreeAblation compares the flat single master against two- and
// four-master trees (CK34), the paper's proposed fix for the master
// bottleneck.
func (e *Env) masterTreeAblation() (string, error) {
	tb := stats.NewTable(
		"Ablation: master tree (CK34 all-vs-all, seconds; worker-slave count held equal, ideal interconnect)",
		"Workers", "Flat", "2 masters", "4 masters")
	for _, n := range []int{8, 16, 32, 40} {
		row := []any{n}
		for _, chips := range []int{1, 2, 4} {
			r, err := masterTree(e.CK34, n, chips, core.DefaultConfig())
			if err != nil {
				return "", err
			}
			row = append(row, r.TotalSeconds)
		}
		tb.AddRowf(row...)
	}
	return tb.String(), nil
}

// fasterCoresAblation tests the conjecture the paper closes with: "it
// is possible that the single master strategy would become the
// bottleneck, if slave processes were running on faster cores", and
// that a hierarchy of masters would relieve it. Core clocks are scaled
// 1x..65536x while the mesh stays fixed; efficiency at 47 slaves is
// reported for the flat farm next to a 4-master tree on the same 48
// total cores (4 masters + 44 workers).
func (e *Env) fasterCoresAblation() (string, error) {
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
			return "", err
		}
		masterBusy := 0.0
		if r.TotalSeconds > 0 {
			masterBusy = r.CoreBusySeconds[cfg.Chip.CoreName(0)] / r.TotalSeconds
		}
		tcfg := cfg
		tcfg.Trace = nil
		rt, err := masterTree(e.CK34, 44, 4, tcfg)
		if err != nil {
			return "", err
		}
		eff := serial / r.TotalSeconds / 47
		// Four significant digits: the makespans span five decades.
		tb.AddRowf(fmt.Sprintf("%.1f GHz", cfg.Chip.CPU.FreqHz/1e9),
			fmt.Sprintf("%.4g", r.TotalSeconds), eff, fmt.Sprintf("%.1f%%", 100*masterBusy), fmt.Sprintf("%.4g", rt.TotalSeconds))
	}
	return tb.String(), nil
}

// resilienceSweep quantifies the fault-tolerant farm's degradation on
// pr: the all-vs-all task on 47 slaves with k slave cores fail-stopped
// at staggered points of the run. While any slave survives, every pair
// must still be scored (Lost stays 0); the makespan shows what the
// deadline-driven recovery costs.
func resilienceSweep(pr *core.PairResults) (string, error) {
	const slaves = 47
	base, err := core.Run(pr, slaves, core.DefaultConfig())
	if err != nil {
		return "", err
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
		return "", err
	}
	for i, r := range runs {
		f := r.Faults
		tb.AddRowf(killed[i], r.TotalSeconds, r.TotalSeconds/t0,
			f.Timeouts, f.Retries, f.Reassigned, f.LostJobs)
	}
	return tb.String(), nil
}

// cacheBatchAblation quantifies the structure-cache + batched-dispatch
// wire model on pr at 47 slaves — baseline vs cached vs cached+batched
// vs cached+batched+affinity: input bytes over the NoC, cache hit rate,
// and the makespan/mailbox effect at both the paper's polling cost and
// the master-bottleneck regime (polling 1e5).
func cacheBatchAblation(pr *core.PairResults) (string, error) {
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
			return "", err
		}
		cfgP := cfg
		cfgP.PollingScale = 1e5
		cfgP.Metrics = metrics.New()
		rp, err := core.Run(pr, slaves, cfgP)
		if err != nil {
			return "", err
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
	return tb.String(), nil
}

// chipScalingSweep shards pr's all-vs-all task across each chip count at
// slavesPerChip slaves per chip, the scale-out scaling curve. Speedup and efficiency are relative to
// the first (usually 1-chip) point, so efficiency reads directly as
// "how much of the added silicon the root master wastes"; the peak
// mailbox and root inbox columns show where the single root saturates,
// and the inter-/intra-chip MB columns split the wire volume by
// interconnect tier.
func chipScalingSweep(pr *core.PairResults, slavesPerChip int, chipCounts []int) (string, error) {
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
		return "", err
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
	return tb.String(), nil
}

// mcpscPartitionAblation studies the paper's MC-PSC open question —
// how to split the chip's cores among comparison methods of very
// different complexity — by running a multi-criteria all-vs-all task
// (TM-align + gapless-RMSD + contact-overlap) under equal and
// cost-proportional partitions of 12 slave cores.
func mcpscPartitionAblation() (string, error) {
	ds := synth.Small(10, 2468)
	methods := []mcpsc.Method{
		mcpsc.TMAlign{Opt: tmalign.FastOptions()},
		mcpsc.GaplessRMSD{},
		mcpsc.ContactOverlap{},
	}
	tb := stats.NewTable(
		"Ablation: MC-PSC core partitioning (10 chains, 3 methods, 12 slaves)",
		"Strategy", "Partition", "Makespan (s)")
	// One score table under both strategies: every (method, pair) kernel
	// is evaluated natively once, each run replays it, and the
	// proportional strategy reads its probe cost from it.
	sc, err := mcpsc.Compute(ds, sched.AllVsAll(ds.Len()), methods, pairstore.New(0))
	if err != nil {
		return "", err
	}
	proportional, err := mcpsc.ProportionalPartition(sc, 12)
	if err != nil {
		return "", err
	}
	for _, strat := range []struct {
		name string
		part []int
	}{
		{"equal", mcpsc.EqualPartition(len(methods), 12)},
		{"proportional", proportional},
	} {
		r, err := mcpsc.Run(sc, mcpsc.Contiguous(strat.part), mcpsc.RunConfig{})
		if err != nil {
			return "", err
		}
		tb.AddRowf(strat.name, fmt.Sprintf("%v", strat.part), r.TotalSeconds)
	}
	return tb.String(), nil
}
