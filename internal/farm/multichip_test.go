package farm

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rckalign/internal/costmodel"
	"rckalign/internal/interchip"
	"rckalign/internal/metrics"
	"rckalign/internal/rckskel"
	"rckalign/internal/scc"
	"rckalign/internal/sched"
	"rckalign/internal/sim"
)

// multiChipRun builds an N-chip board over the default SCC chip, farms
// the given per-chip shards of pairs (structure sizes testSizes(8))
// and returns the combined report plus every collected job id.
func multiChipRun(t *testing.T, chips, slaves int, shards [][]sched.Pair, reg *metrics.Registry) (Report, []int) {
	t.Helper()
	var collected []int
	s, err := New(Config{
		Chips:        chips,
		Chip:         scc.DefaultConfig(),
		PollingScale: 1,
		Metrics:      reg,
		Collect:      func(r rckskel.Result) { collected = append(collected, r.JobID) },
	}, slaves)
	if err != nil {
		t.Fatal(err)
	}
	s.StartSlaves(func(job rckskel.Job) (any, costmodel.Counter, int) {
		return job.Payload, costmodel.Counter{ScoreEvals: 1e6}, 64
	})
	rep, err := s.Run(rootBody(1000, prepareShards(t, s, shards)))
	if err != nil {
		t.Fatal(err)
	}
	return rep, collected
}

// prepareShards builds chip c's Work from shards[c] with PrepareJobs,
// numbering jobs across the chips in order.
func prepareShards(t *testing.T, s *Session, shards [][]sched.Pair) []Work {
	t.Helper()
	work := make([]Work, len(shards))
	id := 0
	for c, pairs := range shards {
		jobs, err := s.PrepareJobs(c, pairs, id, testSizes(8))
		if err != nil {
			t.Fatal(err)
		}
		work[c] = Work{Queues: [][]rckskel.Job{jobs}}
		id += len(pairs)
	}
	return work
}

// rootBody is the root master of a one-stage board run: load, scatter
// the remote shards, farm the root's own, terminate.
func rootBody(residues int, work []Work) func(m *Master) {
	return func(m *Master) {
		m.LoadResidues(residues)
		m.Scatter(work)
		m.FarmWork(work[0], nil)
		m.Terminate()
	}
}

// synthShards deals perChip consecutive pairs of the 8-structure
// all-vs-all to each chip.
func synthShards(chips, perChip int) [][]sched.Pair {
	all := sched.AllVsAll(8)
	shards := make([][]sched.Pair, chips)
	for c := range shards {
		shards[c] = all[c*perChip : (c+1)*perChip : (c+1)*perChip]
	}
	return shards
}

func TestMultiChipRunsAFarm(t *testing.T) {
	reg := metrics.New()
	rep, collected := multiChipRun(t, 2, 3, synthShards(2, 6), reg)

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
	// Chip 1's pairs (0,7) (1,2) ... (1,6) reference all 8 structures.
	wantShard := int64(ShardHeaderBytes + 6*ShardJobHeaderBytes + 100*(1+2+3+4+5+6+7+8))
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
	shards := synthShards(3, 4)
	shards[2] = nil // chip 2 idles: recv shard, terminate, report done
	rep, collected := multiChipRun(t, 3, 2, shards, nil)
	if rep.Collected != 8 || len(collected) != 8 {
		t.Errorf("collected %d/%d, want 8", rep.Collected, len(collected))
	}
	if idle := rep.PerChip[2]; idle.Collected != 0 || idle.ResultBytes != 0 || idle.ShardBytes != ShardHeaderBytes {
		t.Errorf("idle chip report = %+v, want a %d-byte shard and nothing back", idle, ShardHeaderBytes)
	}
	// An idle chip ships no blob: 2 shards, 1 blob (chip 1), 2 dones.
	if rep.Interchip.Transfers != 2+1+2 {
		t.Errorf("transfers = %d, want 5 (2 shards, 1 blob, 2 dones)", rep.Interchip.Transfers)
	}
}

// TestMultiStageBoard farms two stages on three chips, each stage's
// shard priced on its own: chip 1 has work in the first stage only, so
// its first shard is its last and it is sent no empty second one; chip 2
// has none in the first stage, so its first shard is an empty header
// that says another follows. Every pair is collected once, and each
// remote chip's ShardBytes sums the prices of the shards it was sent.
func TestMultiStageBoard(t *testing.T) {
	var collected []int
	s, err := New(Config{
		Chips:   3,
		Chip:    scc.DefaultConfig(),
		Collect: func(r rckskel.Result) { collected = append(collected, r.JobID) },
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.StartSlaves(func(job rckskel.Job) (any, costmodel.Counter, int) {
		return job.Payload, costmodel.Counter{ScoreEvals: 1e5}, 64
	})
	stages := [][][]sched.Pair{
		{{{I: 0, J: 1}}, {{I: 0, J: 2}, {I: 2, J: 3}}, nil},
		{{{I: 1, J: 2}}, nil, {{I: 0, J: 3}, {I: 1, J: 3}}},
	}
	work := make([][]Work, len(stages))
	id := 0
	for k, shards := range stages {
		work[k] = make([]Work, len(shards))
		for c, pairs := range shards {
			jobs, err := s.PrepareJobs(c, pairs, id, testSizes(4))
			if err != nil {
				t.Fatal(err)
			}
			work[k][c], id = Work{Queues: [][]rckskel.Job{jobs}}, id+len(pairs)
		}
	}
	rep, err := s.Run(func(m *Master) {
		for _, w := range work {
			m.Scatter(w)
			m.FarmWork(w[0], nil)
		}
		m.Terminate()
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(collected)
	if want := []int{0, 1, 2, 3, 4, 5}; !slices.Equal(collected, want) {
		t.Errorf("collected jobs %v, want %v", collected, want)
	}
	want := []int64{0,
		ShardHeaderBytes + 2*ShardJobHeaderBytes + 100 + 300 + 400,
		ShardHeaderBytes + (ShardHeaderBytes + 2*ShardJobHeaderBytes + 100 + 200 + 400)}
	for c, cr := range rep.PerChip {
		if cr.ShardBytes != want[c] {
			t.Errorf("chip %d shards = %d bytes, want %d", c, cr.ShardBytes, want[c])
		}
	}
	// 3 shards, a blob per non-empty shard (chip 1, chip 2's second), 2 dones.
	if rep.Interchip.Transfers != 3+2+2 {
		t.Errorf("transfers = %d, want 7 (3 shards, 2 blobs, 2 dones)", rep.Interchip.Transfers)
	}
}

// TestUnfarmedShardTripsInvariant: PrepareJobs credits a chip's ledger,
// so a root that prepares its own shard and never farms it fails the run
// with ErrInvariant, on one chip and on a board, instead of reporting a
// run that silently misses those pairs.
func TestUnfarmedShardTripsInvariant(t *testing.T) {
	for _, chips := range []int{1, 2} {
		s, err := New(Config{Chips: chips, Chip: scc.DefaultConfig()}, 3)
		if err != nil {
			t.Fatal(err)
		}
		s.StartSlaves(func(job rckskel.Job) (any, costmodel.Counter, int) {
			return job.Payload, costmodel.Counter{ScoreEvals: 1e5}, 64
		})
		work := prepareShards(t, s, synthShards(chips, 6))
		_, err = s.Run(func(m *Master) {
			m.LoadResidues(1000)
			m.Scatter(work)
			m.Terminate()
		})
		if !errors.Is(err, ErrInvariant) {
			t.Errorf("chips=%d: root skipped its shard, err = %v, want ErrInvariant", chips, err)
		}
	}
}

// TestDeadlockKeepsInvariant: a root that farms its own shard of a
// 2-chip board and never scatters leaves chip 1's sub-master waiting for
// a shard (a sim.DeadlockError) and chip 1's prepared jobs neither
// collected nor written off (an ErrInvariant). Run reports both.
func TestDeadlockKeepsInvariant(t *testing.T) {
	s, err := New(Config{Chips: 2, Chip: scc.DefaultConfig()}, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.StartSlaves(func(job rckskel.Job) (any, costmodel.Counter, int) {
		return job.Payload, costmodel.Counter{ScoreEvals: 1e5}, 64
	})
	work := prepareShards(t, s, synthShards(2, 6))
	_, err = s.Run(func(m *Master) {
		m.LoadResidues(1000)
		m.FarmWork(work[0], nil)
		m.Terminate()
	})
	var d *sim.DeadlockError
	if !errors.Is(err, ErrInvariant) || !errors.As(err, &d) {
		t.Errorf("root never scattered: err = %v, want both ErrInvariant and a *sim.DeadlockError", err)
	}
}

func TestMultiChipDeterminism(t *testing.T) {
	run := func() (Report, []int) {
		return multiChipRun(t, 4, 3, synthShards(4, 5), metrics.New())
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
	if _, err := New(Config{Chips: -1, Chip: scc.DefaultConfig()}, 3); err == nil {
		t.Error("expected an error for a negative chip count")
	}
	if _, err := New(Config{Chips: 2, Chip: scc.DefaultConfig()}, 48); err == nil {
		t.Error("expected per-chip slave-count error")
	}
	if _, err := New(Config{Chips: 2, Chip: scc.DefaultConfig(), Gather: GatherConfig{Mode: "ring"}}, 3); !errors.Is(err, ErrGatherSpec) {
		t.Errorf("bad gather mode: err = %v, want ErrGatherSpec", err)
	}
}

func TestMultiChipInterchipProfile(t *testing.T) {
	// A slower interconnect must lengthen the run; an ideal one can only
	// help. Uses the same workload at both profiles.
	runWith := func(cfg interchip.Config) Report {
		s, err := New(Config{Chips: 2, Interchip: cfg, Chip: scc.DefaultConfig(), PollingScale: 1}, 3)
		if err != nil {
			t.Fatal(err)
		}
		s.StartSlaves(func(job rckskel.Job) (any, costmodel.Counter, int) {
			return nil, costmodel.Counter{ScoreEvals: 1e6}, 64
		})
		rep, err := s.Run(rootBody(1000, prepareShards(t, s, synthShards(2, 8))))
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

// TestOneChipBoardIsFlat is the one-chip contract: a board of one chip —
// chip count 0 or 1 alike — is the paper's flat farm, with no board tier
// anywhere in its report, its core names or its metric keys.
func TestOneChipBoardIsFlat(t *testing.T) {
	var reps []Report
	var keys [][]string
	for _, chips := range []int{0, 1} {
		reg := metrics.New()
		rep, _ := multiChipRun(t, chips, 3, synthShards(1, 12), reg)
		if rep.Backend != "scc-sim" || rep.Chips != 0 || rep.PerChip != nil || rep.Interchip != nil {
			t.Errorf("chips=%d: Backend %q, Chips %d, PerChip %v, Interchip %v", chips, rep.Backend, rep.Chips, rep.PerChip, rep.Interchip)
		}
		for track := range rep.CoreBusySeconds {
			if !strings.HasPrefix(track, "rck") {
				t.Errorf("chips=%d: prefixed core name %q", chips, track)
			}
		}
		if strings.Contains(rep.Metrics.WorstLink, ":") {
			t.Errorf("chips=%d: worst link %q names a chip", chips, rep.Metrics.WorstLink)
		}
		snap := reg.Snapshot()
		var ks []string
		for _, c := range snap.Counters {
			ks = append(ks, c.Key)
		}
		for _, h := range snap.Histograms {
			ks = append(ks, h.Key)
		}
		for _, k := range ks {
			if strings.Contains(k, "chip=") || strings.HasPrefix(k, "interchip.") {
				t.Errorf("chips=%d: metric key %q belongs to a board", chips, k)
			}
		}
		if len(ks) == 0 {
			t.Fatalf("chips=%d: empty registry", chips)
		}
		reps, keys = append(reps, rep), append(keys, ks)
	}
	if !reflect.DeepEqual(reps[0], reps[1]) || !reflect.DeepEqual(keys[0], keys[1]) {
		t.Error("chip counts 0 and 1 build different runs")
	}
}

// TestBoardWorstLinkUsesBoardWindow: the worst mesh link of a board on a
// remote chip is a fraction of the board's run, like every other
// utilization in the report — not of the remote chip's own (shorter)
// master lifetime.
func TestBoardWorstLinkUsesBoardWindow(t *testing.T) {
	shards := synthShards(2, 12)
	shards[0], shards[1] = nil, append(shards[0], shards[1]...) // all work on chip 1
	rep, _ := multiChipRun(t, 2, 3, shards, metrics.New())
	mr := rep.Metrics
	if !strings.HasPrefix(mr.WorstLink, "c1:") {
		t.Fatalf("worst link %q is not on chip 1", mr.WorstLink)
	}
	if rep.PerChip[1].TotalSeconds >= rep.TotalSeconds {
		t.Fatalf("chip 1 finished at %v, not before the board's %v", rep.PerChip[1].TotalSeconds, rep.TotalSeconds)
	}
	if want := mr.WorstLinkBusySeconds / rep.TotalSeconds; mr.WorstLinkUtilization != want {
		t.Errorf("WorstLinkUtilization = %v, want busy/board total = %v", mr.WorstLinkUtilization, want)
	}
}

// TestDoubleDeliveryTripsInvariant: a farm whose bookkeeping collects one
// result twice fails the run with ErrInvariant; the same farm collecting
// each result once passes.
func TestDoubleDeliveryTripsInvariant(t *testing.T) {
	for _, twice := range []bool{false, true} {
		s, err := New(Config{Chip: scc.DefaultConfig(), Batch: 4}, 3)
		if err != nil {
			t.Fatal(err)
		}
		s.StartSlaves(func(job rckskel.Job) (any, costmodel.Counter, int) {
			return job.Payload, costmodel.Counter{ScoreEvals: 1e5}, 64
		})
		jobs := prepare(t, s, sched.AllVsAll(6), testSizes(6))
		doubled := false
		_, err = s.Run(func(m *Master) {
			m.FarmWork(Work{Queues: [][]rckskel.Job{jobs}}, func(r rckskel.Result) {
				if twice && !doubled {
					doubled = true
					m.s.deliver(m.c, r, nil)
				}
			})
			m.Terminate()
		})
		if twice && !errors.Is(err, ErrInvariant) || !twice && err != nil {
			t.Errorf("twice=%t: collected %d of 15 pairs, err = %v", twice, s.chips[0].collected, err)
		}
	}
}
