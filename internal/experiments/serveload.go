// Serve load sweep: the rckload methodology (seeded stepped-ramp open
// loop against a live server, DESIGN.md §15) packaged as an experiment
// grid over server configurations — the registry's one HostTimed entry
// (`benchtables -only serveload`).

package experiments

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"time"

	"rckalign/internal/batcher"
	"rckalign/internal/loadgen"
	"rckalign/internal/server"
	"rckalign/internal/stats"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

// serveLoadConfig is one server configuration of the sweep grid.
type serveLoadConfig struct {
	Name  string
	Batch batcher.Config
}

// defaultServeLoadConfigs spans the coalescing axis of the grid: no
// coalescing on a single executor versus full coalescing across four —
// the two ends the knee comparison in EXPERIMENTS.md quotes.
func defaultServeLoadConfigs() []serveLoadConfig {
	return []serveLoadConfig{
		{Name: "batch=1 workers=1", Batch: batcher.Config{
			BatchSize: 1, MaxWait: time.Millisecond, Workers: 1}},
		{Name: "batch=16 workers=4", Batch: batcher.Config{
			BatchSize: 16, MaxWait: time.Millisecond, Workers: 4}},
	}
}

// serveLoadSpec fixes the workload side of the grid: one synthetic
// database and one seeded arrival trace, replayed identically against
// every server configuration.
type serveLoadSpec struct {
	Structures int            // synthetic database size
	Seed       int64          // dataset + trace seed
	Slots      []loadgen.Slot // offered-rate schedule (a stepped ramp)
	SLO        time.Duration  // p99 objective for the knee finder
	K          int            // top-K width for topk queries
	// Prewarm runs one one-vs-all per structure before the measured
	// trace, converging the memo store to all-hits so the sweep measures
	// the steady-state serving limit rather than the cold compute
	// transient (which would trip the knee finder in the first slot).
	Prewarm bool
}

// defaultServeLoadSpec is the published sweep: a prewarmed 12-structure
// database under a 500→6000 RPS ramp in 500-RPS steps, so the knee it
// finds is the steady-state serving limit — HTTP handling plus
// coalescer dispatch over a converged memo store.
func defaultServeLoadSpec() serveLoadSpec {
	return serveLoadSpec{
		Structures: 12,
		Seed:       1,
		Slots:      loadgen.Ramp(500, 500, 6000, time.Second),
		SLO:        50 * time.Millisecond,
		K:          3,
		Prewarm:    true,
	}
}

// runServeLoad replays the spec's trace against one in-process server
// configuration and returns the run's SLO report.
func runServeLoad(cfg serveLoadConfig, spec serveLoadSpec) (*loadgen.Report, error) {
	srv := server.New(server.Config{
		Dataset: "serveload",
		Options: tmalign.FastOptions(),
		Batch:   cfg.Batch,
	})
	defer srv.Close()
	ds := synth.Small(spec.Structures, spec.Seed)
	if err := srv.Preload(ds.Structures); err != nil {
		return nil, err
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	r := &loadgen.Runner{Base: hs.URL}
	ids, err := r.FetchIDs()
	if err != nil {
		return nil, err
	}
	if spec.Prewarm {
		for _, id := range ids {
			resp, err := http.Post(hs.URL+"/onevsall?target="+url.QueryEscape(id), "", nil)
			if err != nil {
				return nil, fmt.Errorf("prewarm %s: %w", id, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("prewarm %s: HTTP %d", id, resp.StatusCode)
			}
		}
	}
	synthSpec := loadgen.SynthSpec{Seed: spec.Seed, Slots: spec.Slots}
	arr, err := loadgen.Synthesize(synthSpec)
	if err != nil {
		return nil, err
	}
	reqs, err := loadgen.BuildRequests(arr, ids, spec.Seed, spec.K)
	if err != nil {
		return nil, err
	}
	samples, wall := r.Run(reqs)
	return loadgen.BuildReport(synthSpec, samples, wall, spec.SLO), nil
}

// serveLoadSweep runs every config against the same seeded trace and
// renders one table: offered RPS vs goodput and latency quantiles per
// slot, the knee slot marked, one block of rows per configuration. The
// per-config reports ride along for callers that want the full JSON.
func serveLoadSweep(spec serveLoadSpec, cfgs []serveLoadConfig) (string, []*loadgen.Report, error) {
	tb := stats.NewTable(
		fmt.Sprintf("Serve load sweep: offered RPS vs p99 latency (seed %d, SLO p99 <= %v)",
			spec.Seed, spec.SLO),
		"Config", "Offered RPS", "Goodput", "p50 ms", "p99 ms", "Errors", "")
	reports := make([]*loadgen.Report, 0, len(cfgs))
	for _, cfg := range cfgs {
		rep, err := runServeLoad(cfg, spec)
		if err != nil {
			return "", nil, fmt.Errorf("config %q: %w", cfg.Name, err)
		}
		reports = append(reports, rep)
		for _, sl := range rep.Slots {
			mark := ""
			if rep.Knee.Found && sl.Slot == rep.Knee.Slot {
				mark = "<-- knee"
			}
			tb.AddRow(cfg.Name,
				fmt.Sprintf("%.0f", sl.OfferedRPS),
				fmt.Sprintf("%.1f", sl.GoodputRPS),
				fmt.Sprintf("%.1f", sl.P50Ms),
				fmt.Sprintf("%.1f", sl.P99Ms),
				fmt.Sprintf("%d", sl.Errors),
				mark)
		}
	}
	return tb.String(), reports, nil
}
