package rckalign

// One benchmark per table and figure of the paper's evaluation section,
// plus the ablations DESIGN.md calls out. Each benchmark regenerates its
// experiment end-to-end on the simulated SCC; reported ns/op is the
// host cost of the regeneration (the experiment's own result is the
// simulated time, printed via b.ReportMetric as *_sim_s).
//
// Pair results load from testdata/paircache (committed; delete to force
// native recomputation, which takes minutes of host CPU for RS119).

import (
	"math"
	"sync"
	"testing"
	"time"

	"rckalign/internal/core"
	"rckalign/internal/costmodel"
	"rckalign/internal/dist"
	"rckalign/internal/experiments"
	"rckalign/internal/interchip"
	"rckalign/internal/mcpsc"
	"rckalign/internal/pairstore"
	"rckalign/internal/prune"
	"rckalign/internal/scc"
	"rckalign/internal/sched"
	"rckalign/internal/sim"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

var (
	envOnce sync.Once
	envVal  *experiments.Env
	envErr  error
)

func loadEnv(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() {
		envVal, envErr = experiments.Load("testdata/paircache", tmalign.DefaultOptions())
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return envVal
}

// BenchmarkTable1ChipModel instantiates the Table I chip configuration
// (geometry checks run in internal/scc tests; here we measure model
// construction).
func BenchmarkTable1ChipModel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		chip := scc.New(sim.NewEngine(), scc.DefaultConfig())
		if chip.NumCores() != 48 {
			b.Fatal("not an SCC")
		}
	}
}

// BenchmarkTable2Fig5 regenerates Table II / Figure 5: the CK34
// all-vs-all sweep for rckAlign vs the MCPC-driven distributed TM-align
// over slave counts 1,3,...,47.
func BenchmarkTable2Fig5(b *testing.B) {
	env := loadEnv(b)
	counts := core.OddSlaveCounts(47)
	var rck47, dist47 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rck, err := core.RunSweep(env.CK34, counts, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		dst, err := dist.RunSweep(env.CK34, counts, dist.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		rck47 = rck[len(rck)-1].TotalSeconds
		dist47 = dst[len(dst)-1].TotalSeconds
	}
	b.ReportMetric(rck47, "rckalign47_sim_s")
	b.ReportMetric(dist47, "dist47_sim_s")
}

// BenchmarkTable3 regenerates the serial baselines: all-vs-all times on
// the AMD host and a single P54C core for both datasets.
func BenchmarkTable3(b *testing.B) {
	env := loadEnv(b)
	var ckP54, rsP54 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ckP54 = env.CK34.SerialSeconds(costmodel.P54C())
		rsP54 = env.RS119.SerialSeconds(costmodel.P54C())
		_ = env.CK34.SerialSeconds(costmodel.AMD24())
		_ = env.RS119.SerialSeconds(costmodel.AMD24())
	}
	b.ReportMetric(ckP54, "ck34_p54c_sim_s")
	b.ReportMetric(rsP54, "rs119_p54c_sim_s")
}

// BenchmarkTable4Fig6 regenerates Table IV / Figure 6: the rckAlign
// scaling sweep on both datasets.
func BenchmarkTable4Fig6(b *testing.B) {
	env := loadEnv(b)
	counts := core.OddSlaveCounts(47)
	var spCK, spRS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ck, err := core.RunSweep(env.CK34, counts, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		rs, err := core.RunSweep(env.RS119, counts, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		spCK = env.CK34.SerialSeconds(costmodel.P54C()) / ck[len(ck)-1].TotalSeconds
		spRS = env.RS119.SerialSeconds(costmodel.P54C()) / rs[len(rs)-1].TotalSeconds
	}
	b.ReportMetric(spCK, "ck34_speedup47")
	b.ReportMetric(spRS, "rs119_speedup47")
}

// BenchmarkTable5 regenerates the summary comparison: AMD serial vs P54C
// serial vs rckAlign on 47 slaves, both datasets.
func BenchmarkTable5(b *testing.B) {
	env := loadEnv(b)
	var ck47, rs47 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rck, err := core.Run(env.CK34, 47, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		rrs, err := core.Run(env.RS119, 47, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		ck47 = rck.TotalSeconds
		rs47 = rrs.TotalSeconds
	}
	b.ReportMetric(ck47, "ck34_scc47_sim_s")
	b.ReportMetric(rs47, "rs119_scc47_sim_s")
}

// BenchmarkScheduling is the load-balancing ablation (the paper's future
// work): FIFO vs LPT ordering on CK34 at 47 slaves.
func BenchmarkScheduling(b *testing.B) {
	env := loadEnv(b)
	var fifo, lpt float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		r1, err := core.Run(env.CK34, 47, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Order = sched.LPT
		r2, err := core.Run(env.CK34, 47, cfg)
		if err != nil {
			b.Fatal(err)
		}
		fifo, lpt = r1.TotalSeconds, r2.TotalSeconds
	}
	b.ReportMetric(fifo, "fifo_sim_s")
	b.ReportMetric(lpt, "lpt_sim_s")
}

// BenchmarkPolling is the polling ablation: the paper's busy round-robin
// polling vs an ideal event-driven master, CK34 at 47 slaves.
func BenchmarkPolling(b *testing.B) {
	env := loadEnv(b)
	var polled, eventDriven float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		r1, err := core.Run(env.CK34, 47, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.PollingScale = 0
		r2, err := core.Run(env.CK34, 47, cfg)
		if err != nil {
			b.Fatal(err)
		}
		polled, eventDriven = r1.TotalSeconds, r2.TotalSeconds
	}
	b.ReportMetric(polled, "polling_sim_s")
	b.ReportMetric(eventDriven, "eventdriven_sim_s")
}

// BenchmarkMasterTree is the master-tree ablation the paper proposes for
// master-bottleneck relief: flat vs a 4-master tree (4 chips x 10 slaves
// under the ideal interconnect), CK34, 40 workers.
func BenchmarkMasterTree(b *testing.B) {
	env := loadEnv(b)
	ideal, err := interchip.Profile("ideal")
	if err != nil {
		b.Fatal(err)
	}
	var flat, tree float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r1, err := core.Run(env.CK34, 40, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		r2, err := core.RunMultiChip(env.CK34, 10, core.MultiChipConfig{Config: core.DefaultConfig(), Chips: 4, Interchip: ideal})
		if err != nil {
			b.Fatal(err)
		}
		flat, tree = r1.TotalSeconds, r2.TotalSeconds
	}
	b.ReportMetric(flat, "flat_sim_s")
	b.ReportMetric(tree, "tree4_sim_s")
}

// BenchmarkCacheBatch is the structure-cache + batched-dispatch
// ablation: classic wire vs cached+batched+affinity on CK34 at 47
// slaves, reporting the NoC input-byte reduction alongside the
// simulated times.
func BenchmarkCacheBatch(b *testing.B) {
	env := loadEnv(b)
	var classic, wired, reduction, hitRate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r1, err := core.Run(env.CK34, 47, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.CacheStructs = -1
		cfg.Batch = 8
		cfg.Affinity = true
		r2, err := core.Run(env.CK34, 47, cfg)
		if err != nil {
			b.Fatal(err)
		}
		classic, wired = r1.TotalSeconds, r2.TotalSeconds
		reduction, hitRate = r2.Wire.InputReduction, r2.Wire.CacheHitRate
	}
	b.ReportMetric(classic, "classic_sim_s")
	b.ReportMetric(wired, "cached_batched_affinity_sim_s")
	b.ReportMetric(reduction, "input_reduction_x")
	b.ReportMetric(hitRate, "cache_hit_rate")
}

// BenchmarkChipScaling is the multi-chip scale-out curve: CK34 sharded
// across 1, 2, 4 and 8 SCC chips at 47 slaves each over the default
// board interconnect and gather tree. Reported metrics are the 1- and
// 8-chip simulated times, the 8-chip scaling efficiency (speedup over
// 1 chip divided by 8), and the 8-chip interconnect volume and peak
// root-inbox depth — the inbox sat at 504 queued results before
// sub-master aggregation (BENCH_pr6.json) and is single-digit with
// blobs riding the gather tree. Feeds BENCH_pr9.json; run with
// -benchtime=1x.
func BenchmarkChipScaling(b *testing.B) {
	env := loadEnv(b)
	var t1, t8, eff8, interMB, inbox8 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range []int{1, 2, 4, 8} {
			cfg := core.MultiChipConfig{Config: core.DefaultConfig(), Chips: n}
			r, err := core.RunMultiChip(env.CK34, 47, cfg)
			if err != nil {
				b.Fatal(err)
			}
			switch n {
			case 1:
				t1 = r.TotalSeconds
			case 8:
				t8 = r.TotalSeconds
				eff8 = t1 / r.TotalSeconds / 8
				interMB = float64(r.Interchip.Bytes) / 1e6
				inbox8 = float64(r.Interchip.PeakRootInbox)
			}
		}
	}
	b.ReportMetric(t1, "chips1_sim_s")
	b.ReportMetric(t8, "chips8_sim_s")
	b.ReportMetric(eff8, "chips8_efficiency")
	b.ReportMetric(interMB, "chips8_interchip_mb")
	b.ReportMetric(inbox8, "chips8_peak_root_inbox")
}

// BenchmarkMCPSC exercises the multi-criteria extension end to end: a
// one-vs-all query with three methods partitioned over 12 slaves.
func BenchmarkMCPSC(b *testing.B) {
	ds := synth.Small(8, 55)
	methods := []mcpsc.Method{
		mcpsc.TMAlign{Opt: tmalign.FastOptions()},
		mcpsc.GaplessRMSD{},
		mcpsc.ContactOverlap{},
	}
	var simS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := mcpsc.RunOneVsAll(ds, 0, methods, 12, mcpsc.DefaultRunConfig())
		if err != nil {
			b.Fatal(err)
		}
		simS = r.TotalSeconds
	}
	b.ReportMetric(simS, "mcpsc_sim_s")
}

// BenchmarkPairStore measures what the memoized pair store buys a
// multi-config sweep: a CK34 multi-criteria all-vs-all run repeated at
// four slave counts, seed (no store: every sweep point re-computes all
// native kernels inline) vs store (one shared pairstore: each kernel is
// computed once, later points replay memoized scores). Simulated
// makespans are asserted identical — the store moves host wall-clock
// time only. Run with -benchtime=1x; the host-seconds metrics feed
// BENCH_pr5.json, where speedup_x must stay >= 2.
func BenchmarkPairStore(b *testing.B) {
	ds := synth.CK34()
	methods := []mcpsc.Method{
		mcpsc.TMAlign{Opt: tmalign.FastOptions()},
		mcpsc.GaplessRMSD{},
		mcpsc.ContactOverlap{},
	}
	counts := []int{12, 24, 36, 47}
	sweep := func(cfg mcpsc.RunConfig) []float64 {
		sims := make([]float64, 0, len(counts))
		for _, n := range counts {
			r, err := mcpsc.RunAllVsAll(ds, methods, mcpsc.EqualPartition(len(methods), n), cfg)
			if err != nil {
				b.Fatal(err)
			}
			sims = append(sims, r.TotalSeconds)
		}
		return sims
	}
	var seedS, storeS, speedup float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		seedSims := sweep(mcpsc.DefaultRunConfig())
		seedS = time.Since(t0).Seconds()

		cfg := mcpsc.DefaultRunConfig()
		cfg.Store = pairstore.New(0)
		t1 := time.Now()
		storeSims := sweep(cfg)
		storeS = time.Since(t1).Seconds()

		for k := range seedSims {
			if math.Float64bits(seedSims[k]) != math.Float64bits(storeSims[k]) {
				b.Fatalf("%d slaves: simulated makespan changed under the store: %v vs %v",
					counts[k], seedSims[k], storeSims[k])
			}
		}
		speedup = seedS / storeS
	}
	b.ReportMetric(seedS, "seed_host_s")
	b.ReportMetric(storeS, "store_host_s")
	b.ReportMetric(speedup, "speedup_x")
}

// BenchmarkPairCompare measures one native TM-align comparison of
// CK34-sized chains (the unit job of every experiment).
func BenchmarkPairCompare(b *testing.B) {
	ds := synth.CK34()
	x, y := ds.Structures[0], ds.Structures[1]
	opt := tmalign.DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tmalign.Compare(x, y, opt)
	}
}

// BenchmarkPruneFilter measures the full pre-filter pass over CK34's 561
// pairs (feature extraction amortised out), the cost -prune-tm pays to
// skip kernel evaluations.
func BenchmarkPruneFilter(b *testing.B) {
	ds := synth.CK34()
	feats := make([]prune.Features, ds.Len())
	for i, s := range ds.Structures {
		feats[i] = prune.Extract(s.CAs(), s.Sequence())
	}
	pairs := sched.AllVsAll(ds.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := prune.New(0.5)
		skipped := 0
		for _, p := range pairs {
			if f.Skip(&feats[p.I], &feats[p.J]) {
				skipped++
			}
		}
		if skipped == 0 {
			b.Fatal("filter skipped nothing")
		}
	}
	b.ReportMetric(float64(len(pairs)), "pairs/op")
}
