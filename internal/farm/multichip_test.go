package farm

import (
	"errors"
	"reflect"
	"testing"

	"rckalign/internal/costmodel"
	"rckalign/internal/interchip"
	"rckalign/internal/metrics"
	"rckalign/internal/rckskel"
	"rckalign/internal/scc"
)

// multiChipRun builds an N-chip session over the default SCC chip,
// farms the given per-chip queues of synthetic jobs and returns the
// combined report plus every collected job id.
func multiChipRun(t *testing.T, chips, slaves int, queues [][]rckskel.Job, reg *metrics.Registry) (Report, []int) {
	t.Helper()
	var collected []int
	ms, err := NewMultiSession(MultiConfig{
		Board: MultiChip{Chips: chips, Chip: scc.DefaultConfig()},
		Config: Config{
			Slaves:       slaves,
			PollingScale: 1,
			Metrics:      reg,
			Collector:    CollectorFunc(func(r rckskel.Result) { collected = append(collected, r.JobID) }),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	startSlaves(ms, func(job rckskel.Job) (any, costmodel.Counter, int) {
		return job.Payload, costmodel.Counter{ScoreEvals: 1e6}, 64
	})
	shardBytes := make([]int64, chips)
	for c := range shardBytes {
		shardBytes[c] = ShardHeaderBytes + int64(len(queues[c]))*512
	}
	rep, err := ms.Run(1000, asWork(queues), shardBytes)
	if err != nil {
		t.Fatal(err)
	}
	return rep, collected
}

// startSlaves starts every chip's slave loops with the same handler.
func startSlaves(ms *MultiSession, h rckskel.Handler) {
	for c := 0; c < ms.Chips(); c++ {
		ms.ChipSession(c).StartSlaves(h)
	}
}

// asWork wraps per-chip job queues as classic single-queue shards.
func asWork(queues [][]rckskel.Job) []Work {
	work := make([]Work, len(queues))
	for c, q := range queues {
		work[c] = Work{Jobs: q}
	}
	return work
}

func synthQueues(chips, perChip int) [][]rckskel.Job {
	queues := make([][]rckskel.Job, chips)
	id := 0
	for c := range queues {
		for k := 0; k < perChip; k++ {
			queues[c] = append(queues[c], rckskel.Job{ID: id, Payload: id, Bytes: 512})
			id++
		}
	}
	return queues
}

func TestMultiChipRunsAFarm(t *testing.T) {
	reg := metrics.New()
	rep, collected := multiChipRun(t, 2, 3, synthQueues(2, 6), reg)

	if rep.Chips != 2 || rep.Backend != "multichip-2" {
		t.Errorf("Chips/Backend = %d/%q", rep.Chips, rep.Backend)
	}
	if rep.Collected != 12 || len(collected) != 12 {
		t.Fatalf("collected %d/%d results, want 12", rep.Collected, len(collected))
	}
	seen := map[int]int{}
	for _, id := range collected {
		seen[id]++
	}
	for id := 0; id < 12; id++ {
		if seen[id] != 1 {
			t.Errorf("job %d collected %d times", id, seen[id])
		}
	}
	if rep.TotalSeconds <= rep.LoadSeconds || rep.LoadSeconds <= 0 {
		t.Errorf("implausible times: total %v load %v", rep.TotalSeconds, rep.LoadSeconds)
	}
	// Global JobsPerSlave ids: chip 1's slaves live at 48+local.
	jobsTotal, remote := 0, 0
	for core, n := range rep.FarmStats.JobsPerSlave {
		jobsTotal += n
		if core >= 48 {
			remote += n
		}
	}
	if jobsTotal != 12 || remote != 6 {
		t.Errorf("JobsPerSlave global split = %d total / %d remote, want 12/6", jobsTotal, remote)
	}
	// 2 chips x (master + 3 slaves) traced cores.
	if len(rep.CoreUtilization) != 8 {
		t.Errorf("CoreUtilization has %d tracks, want 8: %v", len(rep.CoreUtilization), rep.CoreUtilization)
	}

	if len(rep.PerChip) != 2 {
		t.Fatalf("PerChip has %d entries", len(rep.PerChip))
	}
	c0, c1 := rep.PerChip[0], rep.PerChip[1]
	if c0.Master != "c0.rck00" || c1.Master != "c1.rck00" {
		t.Errorf("masters = %q, %q", c0.Master, c1.Master)
	}
	if c0.Collected != 6 || c1.Collected != 6 {
		t.Errorf("per-chip collected = %d, %d, want 6, 6", c0.Collected, c1.Collected)
	}
	if c0.ShardBytes != 0 || c0.ResultBytes != 0 {
		t.Errorf("chip 0 fabric bytes = %d/%d, want 0/0 (its shard never leaves the root)", c0.ShardBytes, c0.ResultBytes)
	}
	wantShard := int64(ShardHeaderBytes + 6*512)
	// One aggregate blob for the whole shard: header + 6 x 64 B results.
	wantResults := int64(AggregateHeaderBytes + 6*64)
	if c1.ShardBytes != wantShard || c1.ResultBytes != wantResults {
		t.Errorf("chip 1 fabric bytes = %d/%d, want %d/%d", c1.ShardBytes, c1.ResultBytes, wantShard, wantResults)
	}
	for _, cr := range rep.PerChip {
		if cr.MeanUtilization <= 0 || cr.MeanUtilization > 1 {
			t.Errorf("chip %d mean utilization %v outside (0,1]", cr.Chip, cr.MeanUtilization)
		}
		if cr.TotalSeconds <= 0 || cr.TotalSeconds > rep.TotalSeconds {
			t.Errorf("chip %d total %v outside (0, %v]", cr.Chip, cr.TotalSeconds, rep.TotalSeconds)
		}
	}

	ic := rep.Interchip
	if ic == nil {
		t.Fatal("no interchip report")
	}
	// 1 shard out + 1 aggregate blob back + 1 gather-done.
	if ic.Transfers != 3 {
		t.Errorf("interchip transfers = %d, want 3", ic.Transfers)
	}
	if want := wantShard + wantResults + InterchipControlBytes; ic.Bytes != want {
		t.Errorf("interchip bytes = %d, want %d", ic.Bytes, want)
	}
	if ic.ShardBytes != wantShard || ic.ResultBytes != wantResults {
		t.Errorf("interchip shard/result split = %d/%d, want %d/%d", ic.ShardBytes, ic.ResultBytes, wantShard, wantResults)
	}
	// Aggregation must beat the per-pair counterfactual (6 results x
	// (64 B + the per-result frame)) and keep the root inbox shallow.
	if want := int64(6 * (64 + InterchipResultHeaderBytes)); ic.PerPairResultBytes != want {
		t.Errorf("per-pair counterfactual = %d, want %d", ic.PerPairResultBytes, want)
	}
	if ic.ResultBytes >= ic.PerPairResultBytes {
		t.Errorf("aggregated result bytes %d not below per-pair %d", ic.ResultBytes, ic.PerPairResultBytes)
	}
	if ic.PeakRootInbox > 2 {
		t.Errorf("peak root inbox = %d, want <= 2 (one blob + one done in flight)", ic.PeakRootInbox)
	}
	if ic.RootFlows != 2 {
		t.Errorf("root flows = %d, want 2 (one blob + one done)", ic.RootFlows)
	}
	if ic.GatherMode != GatherTree || ic.RootFanIn != 1 || ic.AggMessages != 1 {
		t.Errorf("gather topology = %s fan-in %d agg msgs %d, want tree/1/1", ic.GatherMode, ic.RootFanIn, ic.AggMessages)
	}
	if len(ic.GatherLevels) != 1 || ic.GatherLevels[0].Level != 1 || ic.GatherLevels[0].Blobs != 1 ||
		ic.GatherLevels[0].MeanLatencySeconds <= 0 {
		t.Errorf("gather levels = %+v, want one level-1 hop with positive latency", ic.GatherLevels)
	}
	if ic.IntraChipBytes <= 0 {
		t.Errorf("intra-chip bytes = %d, want > 0 (registry was set)", ic.IntraChipBytes)
	}
	if ic.Profile == "" {
		t.Error("interchip profile is empty")
	}
	if rep.Metrics == nil || rep.Metrics.PeakMailboxDepth < 1 {
		t.Errorf("merged metrics = %+v, want peak mailbox >= 1", rep.Metrics)
	}
}

func TestMultiChipEmptyShard(t *testing.T) {
	queues := synthQueues(3, 4)
	queues[2] = nil // chip 2 idles: recv shard, terminate, report done
	rep, collected := multiChipRun(t, 3, 2, queues, nil)
	if rep.Collected != 8 || len(collected) != 8 {
		t.Errorf("collected %d/%d, want 8", rep.Collected, len(collected))
	}
	if rep.PerChip[2].Collected != 0 || rep.PerChip[2].ResultBytes != 0 {
		t.Errorf("idle chip report = %+v", rep.PerChip[2])
	}
	// An idle chip ships no blob: 2 shards, 1 blob (chip 1), 2 dones.
	if rep.Interchip.Transfers != 2+1+2 {
		t.Errorf("transfers = %d, want 5 (2 shards, 1 blob, 2 dones)", rep.Interchip.Transfers)
	}
}

func TestMultiChipDeterminism(t *testing.T) {
	run := func() (Report, []int) {
		return multiChipRun(t, 4, 3, synthQueues(4, 5), metrics.New())
	}
	rep1, col1 := run()
	rep2, col2 := run()
	if !reflect.DeepEqual(rep1, rep2) {
		t.Errorf("reports differ across identical runs:\n%+v\n%+v", rep1, rep2)
	}
	if !reflect.DeepEqual(col1, col2) {
		t.Errorf("collection order differs: %v vs %v", col1, col2)
	}
}

func TestMultiChipValidation(t *testing.T) {
	_, err := NewMultiSession(MultiConfig{
		Board:  MultiChip{Chips: 1, Chip: scc.DefaultConfig()},
		Config: Config{Slaves: 3},
	})
	if !errors.Is(err, ErrChipCount) {
		t.Errorf("chips=1 error = %v, want ErrChipCount", err)
	}
	ms, err := NewMultiSession(MultiConfig{
		Board:  MultiChip{Chips: 2, Chip: scc.DefaultConfig()},
		Config: Config{Slaves: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms.Run(0, make([]Work, 3), make([]int64, 3)); err == nil {
		t.Error("expected error for mismatched queue count")
	}
	if _, err := NewMultiSession(MultiConfig{
		Board:  MultiChip{Chips: 2, Chip: scc.DefaultConfig()},
		Config: Config{Slaves: 48},
	}); err == nil {
		t.Error("expected per-chip slave-count error")
	}
}

func TestMultiChipInterchipProfile(t *testing.T) {
	// A slower interconnect must lengthen the run; an ideal one can only
	// help. Uses the same workload at both profiles.
	runWith := func(cfg interchip.Config) Report {
		ms, err := NewMultiSession(MultiConfig{
			Board:  MultiChip{Chips: 2, Chip: scc.DefaultConfig(), Interchip: cfg},
			Config: Config{Slaves: 3, PollingScale: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		startSlaves(ms, func(job rckskel.Job) (any, costmodel.Counter, int) {
			return nil, costmodel.Counter{ScoreEvals: 1e6}, 64
		})
		queues := synthQueues(2, 8)
		rep, err := ms.Run(1000, asWork(queues), []int64{0, ShardHeaderBytes + 8*512})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	cluster, _ := interchip.Profile("cluster")
	ideal, _ := interchip.Profile("ideal")
	slow, fast := runWith(cluster), runWith(ideal)
	if slow.TotalSeconds <= fast.TotalSeconds {
		t.Errorf("cluster profile (%v s) should be slower than ideal (%v s)",
			slow.TotalSeconds, fast.TotalSeconds)
	}
	if slow.Interchip.Profile == fast.Interchip.Profile {
		t.Errorf("profiles should differ: %q", slow.Interchip.Profile)
	}
}
