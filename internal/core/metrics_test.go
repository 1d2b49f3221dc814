package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rckalign/internal/farm"
	"rckalign/internal/fault"
	"rckalign/internal/metrics"
	"rckalign/internal/pairstore"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
	"rckalign/internal/trace"
)

// metricsRun executes the package's small synthetic workload with
// metrics and tracing enabled.
func metricsRun(t *testing.T, slaves int) (RunResult, *metrics.Registry, *trace.Recorder) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Metrics = metrics.New()
	cfg.Trace = trace.New()
	r, err := Run(smallPR, slaves, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, cfg.Metrics, cfg.Trace
}

// TestMetricsDoNotPerturbTimings pins the zero-cost-when-observing rule:
// a run with a metrics registry and a trace recorder attached must
// report exactly what a bare run does, in every field except those
// distilled from the registry, the Metrics block and each chip's
// PeakMailboxDepth. The board case has
// every layer that counts for itself: the wire model, the structure
// cache, the fabric and the chips' rcce traffic.
func TestMetricsDoNotPerturbTimings(t *testing.T) {
	for _, tc := range []struct {
		name   string
		slaves int
		mut    func(*Config)
	}{
		{"flat", 7, nil},
		{"board-chips2-wire", 3, func(c *Config) { c.Chips, c.CacheStructs, c.Batch = 2, -1, 8 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(reg *metrics.Registry) farm.Report {
				cfg := DefaultConfig()
				if tc.mut != nil {
					tc.mut(&cfg)
				}
				if reg != nil {
					cfg.Metrics, cfg.Trace = reg, trace.New()
				}
				r, err := Run(smallPR, tc.slaves, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return r.Report
			}
			base, got := run(nil), run(metrics.New())
			if got.Metrics == nil {
				t.Fatal("instrumented run has no Metrics block")
			}
			got.Metrics = nil
			for i := range got.PerChip {
				got.PerChip[i].PeakMailboxDepth = 0
			}
			if !reflect.DeepEqual(got, base) {
				g, _ := json.Marshal(got)
				w, _ := json.Marshal(base)
				t.Errorf("instrumentation changed the report:\n got %s\nwant %s", g, w)
			}
		})
	}
}

// TestMetricsReportBlock sanity-checks the distilled summary against the
// known workload: 28 jobs, every stage observed once per job, a real
// worst link and heatmap from the contended mesh.
func TestMetricsReportBlock(t *testing.T) {
	r, reg, rec := metricsRun(t, 7)
	mr := r.Report.Metrics
	if mr == nil {
		t.Fatal("no Metrics block")
	}
	for _, stage := range []string{"dispatch_wait", "input_xfer", "compute", "result_xfer", "collect_wait"} {
		if got := mr.JobStages[stage].Count; got != 28 {
			t.Errorf("stage %s count = %d, want 28", stage, got)
		}
	}
	if mr.JobStages["compute"].TotalSeconds <= 0 {
		t.Error("no compute time observed")
	}
	if mr.PeakMailboxDepth < 1 {
		t.Errorf("peak mailbox depth = %v, want >= 1", mr.PeakMailboxDepth)
	}
	if mr.WorstLink == "" || mr.WorstLinkBusySeconds <= 0 {
		t.Errorf("no worst link: %q busy=%v", mr.WorstLink, mr.WorstLinkBusySeconds)
	}
	if !strings.Contains(mr.LinkHeatmap, "peak link busy") {
		t.Errorf("heatmap missing legend:\n%s", mr.LinkHeatmap)
	}
	if got := reg.Counter("farm.jobs.completed").Value(); got != 28 {
		t.Errorf("farm.jobs.completed = %v, want 28", got)
	}

	// The Chrome trace carries one thread track per traced core (7
	// slaves + master) plus counter tracks from the registry series.
	ct := farm.BuildChromeTrace(rec, reg)
	var buf bytes.Buffer
	if err := ct.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), `"thread_name"`); got != 8 {
		t.Errorf("thread tracks = %d, want 8", got)
	}
	for _, track := range []string{"farm.master.mailbox_depth", "noc.links.active"} {
		if !strings.Contains(buf.String(), track) {
			t.Errorf("chrome trace missing counter track %s", track)
		}
	}
}

// TestMetricsGoldenSnapshot pins byte-identical determinism: each run
// serialises to its committed golden, and two identical runs agree byte
// for byte. The board runs emit every farm.cache.*, farm.wire.*,
// interchip.* and interchip.gather.* key: CK34 on four chips relays
// blobs through chip 1 and hits the slaves' caches, and the second board
// has a chip whose shard is empty. Regenerate with UPDATE_GOLDEN=1 go test
// ./internal/core after an intentional metrics change.
func TestMetricsGoldenSnapshot(t *testing.T) {
	board := func(c *Config) {
		c.Chips, c.Gather = 4, farm.GatherConfig{Mode: farm.GatherTree, Arity: 2}
		c.CacheStructs, c.Batch = -1, 8
	}
	for _, tc := range []struct {
		golden string
		pr     *PairResults
		slaves int
		mut    func(*Config)
	}{
		{"golden_metrics.json", smallPR, 7, nil},
		{"golden_metrics_board.json", ck34PR(t), 1, board},
		{"golden_metrics_board_empty_shard.json", ComputePairsShared(smallPR.Dataset, tmalign.FastOptions(), pairstore.New(0), smallPR.Pairs[:2]), 3, func(c *Config) {
			board(c)
			c.Chips = 3
		}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			snapshot := func() []byte {
				cfg := DefaultConfig()
				cfg.Metrics = metrics.New()
				cfg.Trace = trace.New()
				if tc.mut != nil {
					tc.mut(&cfg)
				}
				if _, err := Run(tc.pr, tc.slaves, cfg); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := cfg.Metrics.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			got := snapshot()
			if !bytes.Equal(got, snapshot()) {
				t.Fatal("two identical runs produced different snapshots")
			}
			golden := filepath.Join("testdata", tc.golden)
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("snapshot differs from %s (%d vs %d bytes); run with UPDATE_GOLDEN=1 if the change is intentional",
					golden, len(got), len(want))
			}
		})
	}
}

// TestMetricsUnderFaultPlans pins that observability does not depend on
// whether a plan is armed: a kill run records every stage of the per-job
// latency decomposition, and an empty plan leaves the registry snapshot
// byte-identical to the plan-free run's.
func TestMetricsUnderFaultPlans(t *testing.T) {
	snapshot := func(plan *fault.Plan) ([]byte, RunResult) {
		cfg := DefaultConfig()
		cfg.Metrics = metrics.New()
		cfg.Faults = plan
		r, err := Run(smallPR, 7, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cfg.Metrics.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), r
	}
	plain, base := snapshot(nil)
	if empty, _ := snapshot(&fault.Plan{Seed: 1}); !bytes.Equal(plain, empty) {
		t.Error("an empty fault plan changed the metrics snapshot")
	}
	_, killed := snapshot(&fault.Plan{Kills: []fault.CoreFailure{{Core: 3, At: 0.25 * base.TotalSeconds}}})
	if killed.Faults == nil || killed.Faults.Retries == 0 {
		t.Fatalf("kill left no recovery trace: %+v", killed.Faults)
	}
	for stage, agg := range killed.Metrics.JobStages {
		if agg.Count == 0 {
			t.Errorf("kill run observed no %s samples", stage)
		}
	}
	if len(killed.Metrics.JobStages) != 5 {
		t.Errorf("job stages = %v, want all five", killed.Metrics.JobStages)
	}
}

// ck34PR loads the committed CK34 pair results (no kernel run).
func ck34PR(t *testing.T) *PairResults {
	t.Helper()
	pr, err := LoadPairResults(synth.CK34(), filepath.Join("..", "..", "testdata", "paircache", "CK34.gob"))
	if err != nil {
		t.Fatal(err)
	}
	return pr
}
