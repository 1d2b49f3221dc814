package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"rckalign/internal/core"
	"rckalign/internal/costmodel"
	"rckalign/internal/fault"
	"rckalign/internal/metrics"
	"rckalign/internal/sched"
)

// faultSpec is the fault-tolerant replay's plan: slave core 12 fail-stops
// 40 simulated seconds in.
const faultSpec = "seed=1;kill=12@40"

var chipCounts = []int{1, 2, 4, 8}

// replayStats is every simulated statistic replay_rs119_sweep produces.
// It is compared with bench/expected/replay.json as JSON text, so a
// host-side change must leave every digit alone.
type replayStats struct {
	Sweep []sweepPoint `json:"sweep"`
	Chips []chipPoint  `json:"chips"`
	Wire  struct {
		TotalSeconds   float64 `json:"total_seconds"`
		Collected      int     `json:"collected"`
		InputReduction float64 `json:"input_reduction"`
		CacheHitRate   float64 `json:"cache_hit_rate"`
	} `json:"wire"`
	FT struct {
		TotalSeconds float64 `json:"total_seconds"`
		Collected    int     `json:"collected"`
		Timeouts     int     `json:"timeouts"`
		Retries      int     `json:"retries"`
		Reassigned   int     `json:"reassigned"`
		LostJobs     int     `json:"lost_jobs"`
		DeadCores    []int   `json:"dead_cores"`
	} `json:"ft"`
}

type sweepPoint struct {
	Slaves       int     `json:"slaves"`
	TotalSeconds float64 `json:"total_seconds"`
	Collected    int     `json:"collected"`
}

type chipPoint struct {
	Chips           int     `json:"chips"`
	TotalSeconds    float64 `json:"total_seconds"`
	Collected       int     `json:"collected"`
	InterchipBytes  int64   `json:"interchip_bytes"`
	PeakRootInbox   int     `json:"peak_root_inbox"`
	RootFlows       int64   `json:"root_flows"`
	SendWaitSeconds float64 `json:"send_wait_seconds"`
}

func (s *replayStats) text() string {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic(err) // plain numbers always marshal
	}
	return string(buf)
}

// collected is the workload's operation count: simulated jobs collected
// over all of its runs.
func (s *replayStats) collected() int {
	n := s.Wire.Collected + s.FT.Collected
	for _, p := range s.Sweep {
		n += p.Collected
	}
	for _, p := range s.Chips {
		n += p.Collected
	}
	return n
}

// replay is replay_rs119_sweep: cached pair results replayed through the
// simulated SCC in the four dispatch modes — the RS119 slave sweep, the
// RS119 chip sweep, a CK34 cache/batch/affinity wire-model run and a
// CK34 fault-tolerant run. The kernel does no work. Operation: one
// simulated job collected.
type replay struct {
	cfg      runConfig
	ck, rs   *core.PairResults
	expected *expectedFile

	stats replayStats
	prev  string
}

func (w *replay) Setup() (err error) {
	if w.ck, err = referenceResults(w.cfg, w.cfg.size.ck()); err != nil {
		return err
	}
	if w.rs, err = referenceResults(w.cfg, w.cfg.size.rs()); err != nil {
		return err
	}
	w.expected, err = loadExpected(w.cfg)
	return err
}

func (w *replay) Pass(tr *tracer) (int, error) {
	root := tr.begin("replay_rs119_sweep", -1, "main")
	defer tr.end(root)
	w.stats = replayStats{}
	st := &w.stats

	s := tr.begin("core.sweep", root, "main")
	sweep, err := core.RunSweep(w.rs, core.OddSlaveCounts(replaySlaves), core.DefaultConfig())
	tr.end(s)
	if err != nil {
		return 0, err
	}
	for i, n := range core.OddSlaveCounts(replaySlaves) {
		st.Sweep = append(st.Sweep, sweepPoint{n, sweep[i].TotalSeconds, sweep[i].Collected})
	}

	s = tr.begin("core.chipsweep", root, "main")
	chips, err := core.RunChipSweep(w.rs, replaySlaves, chipCounts, core.MultiChipConfig{Config: core.DefaultConfig()})
	tr.end(s)
	if err != nil {
		return 0, err
	}
	for i, n := range chipCounts {
		p := chipPoint{Chips: n, TotalSeconds: chips[i].TotalSeconds, Collected: chips[i].Collected}
		if ic := chips[i].Interchip; ic != nil {
			p.InterchipBytes, p.PeakRootInbox, p.RootFlows, p.SendWaitSeconds = ic.Bytes, ic.PeakRootInbox, ic.RootFlows, ic.SendWaitSeconds
		}
		st.Chips = append(st.Chips, p)
	}

	wireCfg := core.DefaultConfig()
	wireCfg.CacheStructs, wireCfg.Batch, wireCfg.Affinity = -1, 8, true
	s = tr.begin("core.run.wire", root, "main")
	wire, err := core.Run(w.ck, replaySlaves, wireCfg)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	st.Wire.TotalSeconds, st.Wire.Collected = wire.TotalSeconds, wire.Collected
	if wire.Wire != nil {
		st.Wire.InputReduction, st.Wire.CacheHitRate = wire.Wire.InputReduction, wire.Wire.CacheHitRate
	}

	ftCfg := core.DefaultConfig()
	if ftCfg.Faults, err = fault.ParseSpec(faultSpec); err != nil {
		return 0, err
	}
	s = tr.begin("core.run.ft", root, "main")
	ft, err := core.Run(w.ck, replaySlaves, ftCfg)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	st.FT.TotalSeconds, st.FT.Collected = ft.TotalSeconds, ft.Collected
	if f := ft.Faults; f != nil {
		st.FT.Timeouts, st.FT.Retries, st.FT.Reassigned, st.FT.LostJobs = f.Timeouts, f.Retries, f.Reassigned, f.LostJobs
		st.FT.DeadCores = f.DeadCores
	}
	return st.collected(), nil
}

func (w *replay) Check() (int, error) {
	got := w.stats.text()
	if w.prev != "" && got != w.prev {
		return w.stats.collected(), fmt.Errorf("simulated statistics changed between passes: %s", firstDiff(got, w.prev))
	}
	w.prev = got
	if w.expected != nil {
		if want := w.expected.Replay.text(); got != want {
			return w.stats.collected(), fmt.Errorf("simulated statistics differ from %s: %s", expectedPath(w.cfg.root), firstDiff(got, want))
		}
	}
	return 0, nil
}

func (w *replay) Teardown() {}

func (w *replay) Layer(m map[string]float64, tr *tracer, passes int) error {
	m["core.sweep_host_s"] = median(tr.seconds("core.sweep"))
	m["core.chipsweep_host_s"] = median(tr.seconds("core.chipsweep"))
	m["core.wire_run_host_ms"] = median(tr.seconds("core.run.wire")) * 1e3
	m["core.ft_run_host_ms"] = median(tr.seconds("core.run.ft")) * 1e3

	st := &w.stats
	at47 := st.Sweep[len(st.Sweep)-1]
	m["sim.makespan_s"] = at47.TotalSeconds
	m["sim.speedup47"] = w.rs.SerialSeconds(costmodel.P54C()) / at47.TotalSeconds
	m["farm.efficiency47"] = m["sim.speedup47"] / float64(at47.Slaves)
	c1, c8 := st.Chips[0], st.Chips[len(st.Chips)-1]
	m["sim.chips8_efficiency"] = c1.TotalSeconds / c8.TotalSeconds / float64(c8.Chips)
	m["interchip.bytes"] = float64(c8.InterchipBytes)
	m["interchip.peak_root_inbox"] = float64(c8.PeakRootInbox)
	m["interchip.root_flows"] = float64(c8.RootFlows)
	m["interchip.send_wait_sim_s"] = c8.SendWaitSeconds
	m["farm.wire_input_reduction_x"] = st.Wire.InputReduction
	m["farm.cache_hit_rate"] = st.Wire.CacheHitRate
	m["farm.ft_retries"] = float64(st.FT.Retries)

	// One more RS119 run at 47 slaves with a metrics registry attached:
	// the registry is passive, so the makespan must not move, and its
	// counters say how many events the host time of a run pays for.
	reg := metrics.New()
	cfg := core.DefaultConfig()
	cfg.Metrics = reg
	t0 := time.Now()
	rr, err := core.Run(w.rs, replaySlaves, cfg)
	host := time.Since(t0)
	if err != nil {
		return err
	}
	if rr.TotalSeconds != at47.TotalSeconds {
		return fmt.Errorf("metrics registry moved the makespan: %v s with, %v s without", rr.TotalSeconds, at47.TotalSeconds)
	}
	m["core.run47_host_ms"] = host.Seconds() * 1e3
	snap := reg.Snapshot()
	sum := func(prefix string) float64 {
		t := 0.0
		for _, c := range snap.Counters {
			if c.Key == prefix || strings.HasPrefix(c.Key, prefix+"{") {
				t += c.Value
			}
		}
		return t
	}
	events := sum("sim.events.callbacks") + sum("sim.events.process_wakeups")
	m["sim.events"] = events
	m["sim.proc_blocks"] = sum("sim.proc.blocks")
	m["sim.events_per_host_s"] = events / host.Seconds()
	m["sim.host_ns_per_event"] = float64(host.Nanoseconds()) / events
	m["farm.master_collect_sim_s"] = sum("farm.master.collect_seconds")
	m["noc.transfers"] = sum("noc.transfers")
	m["noc.transfer_bytes"] = sum("noc.transfer.bytes")
	m["noc.link_wait_sim_s"] = sum("noc.link.wait_seconds")
	m["rcce.send_messages"] = sum("rcce.send.messages")
	m["rcce.send_bytes"] = sum("rcce.send.bytes")
	if mr := rr.Metrics; mr != nil {
		m["farm.peak_mailbox"] = mr.PeakMailboxDepth
		m["noc.worst_link_util"] = mr.WorstLinkUtilization
		for stage, agg := range mr.JobStages {
			m["farm.stage_sim_s."+stage] = agg.MeanSeconds
		}
	}

	lengths := make([]int, w.rs.Dataset.Len())
	for i, s := range w.rs.Dataset.Structures {
		lengths[i] = s.Len()
	}
	cost := sched.LengthProductCost(lengths)
	m["sched.apply_lpt_ms"] = timeMin(w.cfg.size.probeIters/100+1, func() {
		if _, err := sched.Apply(w.rs.Pairs, sched.LPT, cost, w.cfg.seed); err != nil {
			panic(err) // cost is non-nil
		}
	}) / 1e6
	m["sched.shard_ms"] = timeMin(w.cfg.size.probeIters/100+1, func() {
		if _, err := sched.ShardPairs(w.rs.Pairs, 8, sched.DefaultTile, cost); err != nil {
			panic(err) // 8 shards is a valid count
		}
	}) / 1e6
	m["core.loadpairs_ms"] = timeMin(5, func() {
		if _, err := referenceResults(w.cfg, w.rs.Dataset); err != nil {
			panic(err) // Setup loaded the same file
		}
	}) / 1e6
	return datasetProbes(m, w.rs.Dataset, w.cfg.size.rs)
}
