// Command rckload is the open-loop load generator for rckserve: it
// synthesizes a deterministic (seeded) arrival trace, replays it
// against a live server without coordinated omission, and writes the
// run's SLO report (per-endpoint quantiles, goodput vs offered load,
// knee of the throughput/latency curve) plus a Chrome/Perfetto trace
// for ui.perfetto.dev. See DESIGN.md §15 for the methodology.
//
// Usage:
//
//	rckload -addr HOST:PORT [-start R -step R -target R] [-slot DUR]
//	        [-arrival uniform|poisson] [-seed N]
//	        [-mix "score=0.9,onevsall=0.07,topk=0.03"] [-k N] [-slo DUR]
//	        [-report-out FILE] [-trace-out FILE] [-sched-out FILE]
//	rckload -dry-run [-pool N] [ramp flags] [-sched-out FILE]
//
// The offered load is one stepped ramp (loadgen.Ramp): the first -slot
// offers -start RPS and each following one adds -step until -target.
// A constant-rate run is -step 0: one slot of -slot at -start RPS.
//
// -dry-run synthesizes and prints the schedule without a server (the
// target pool is -pool placeholder ids); two dry runs with the same
// flags emit byte-identical -sched-out files — the determinism contract
// its test pins. (The in-process config-grid sweep EXPERIMENTS.md quotes is
// `benchtables -only serveload`.)
//
// Exit status: 0 on success (even if some requests failed — the report
// carries the error counts), 1 on operational failure, 2 on bad usage.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"rckalign/internal/loadgen"
	"rckalign/internal/stats"
)

type cliFlags struct {
	Addr      string
	Start     float64
	Step      float64
	Target    float64
	Slot      time.Duration
	Arrival   string
	Seed      int64
	Mix       string
	K         int
	SLO       time.Duration
	ReportOut string
	TraceOut  string
	SchedOut  string
	DryRun    bool
	Pool      int
}

// maxRampSlots and maxRampRequests bound the offered ramp far above any
// recipe (the test and EXPERIMENTS.md ramps have at most tens of slots
// and 10^5 requests), so a tiny -step or a huge -start or -target is a
// usage error instead of a schedule that never finishes building.
const (
	maxRampSlots    = 10_000
	maxRampRequests = 10_000_000
)

// validateFlags checks the flag set and returns the selected mode:
// "dry" or "run".
func validateFlags(f cliFlags) (string, error) {
	switch f.Arrival {
	case "uniform", "poisson":
	default:
		return "", fmt.Errorf("-arrival %q: want uniform or poisson", f.Arrival)
	}
	// NaN fails every comparison, so each rate check rejects it too.
	if !(f.Start > 0 && f.Start <= math.MaxFloat64) {
		return "", fmt.Errorf("-start %v: must be a finite rate > 0", f.Start)
	}
	if !(f.Target >= f.Start && f.Target <= math.MaxFloat64) {
		return "", fmt.Errorf("-target %v: must be a finite rate >= -start %v", f.Target, f.Start)
	}
	if !(f.Step >= 0 && f.Step <= math.MaxFloat64) {
		return "", fmt.Errorf("-step %v: must be a finite rate >= 0", f.Step)
	}
	if f.Slot <= 0 {
		return "", fmt.Errorf("-slot %v: must be > 0", f.Slot)
	}
	if slots, requests := loadgen.RampSize(f.Start, f.Step, f.Target, f.Slot, maxRampSlots); slots > maxRampSlots || requests > maxRampRequests {
		return "", fmt.Errorf("-start %v -step %v -target %v -slot %v: the ramp exceeds %d slots or %d requests",
			f.Start, f.Step, f.Target, f.Slot, maxRampSlots, maxRampRequests)
	}
	if _, err := parseMix(f.Mix); err != nil {
		return "", err
	}
	if f.K < 1 {
		return "", fmt.Errorf("-k %d: must be >= 1", f.K)
	}
	if f.SLO <= 0 {
		return "", fmt.Errorf("-slo %v: must be > 0", f.SLO)
	}
	if f.DryRun {
		if f.Pool < 2 {
			return "", fmt.Errorf("-pool %d: must be >= 2", f.Pool)
		}
		return "dry", nil
	}
	if f.Addr == "" {
		return "", errors.New("-addr must not be empty")
	}
	return "run", nil
}

// parseMix parses "score=0.9,onevsall=0.07,topk=0.03". An empty string
// means the default mix.
func parseMix(s string) (loadgen.Mix, error) {
	if s == "" {
		return nil, nil
	}
	mix := loadgen.Mix{}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("-mix %q: want op=weight pairs", s)
		}
		w, err := strconv.ParseFloat(kv[1], 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("-mix %q: bad weight %q", s, kv[1])
		}
		switch op := loadgen.Op(kv[0]); op {
		case loadgen.OpScore, loadgen.OpOneVsAll, loadgen.OpTopK:
			mix[op] = w
		default:
			return nil, fmt.Errorf("-mix %q: unknown op %q", s, kv[0])
		}
	}
	return mix, nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8344", "rckserve address")
	start := flag.Float64("start", 50, "ramp: first slot's RPS")
	step := flag.Float64("step", 50, "ramp: RPS added per slot (0 = one constant-rate slot)")
	target := flag.Float64("target", 300, "ramp: final RPS (last slot clamps to it)")
	slot := flag.Duration("slot", 2*time.Second, "slot duration (ramp step length / reporting granularity)")
	arrival := flag.String("arrival", "uniform", "arrival process within a slot: uniform or poisson")
	seed := flag.Int64("seed", 1, "trace seed (same seed = same schedule, mix and targets)")
	mix := flag.String("mix", "", "op mix as op=weight pairs (default score=0.90,onevsall=0.07,topk=0.03)")
	k := flag.Int("k", 5, "neighbor count for topk requests")
	slo := flag.Duration("slo", 250*time.Millisecond, "p99 latency objective for the knee finder")
	reportOut := flag.String("report-out", "", "write the SLO report JSON here")
	traceOut := flag.String("trace-out", "", "write the Chrome/Perfetto trace here")
	schedOut := flag.String("sched-out", "", "write the deterministic schedule (JSON lines) here")
	dryRun := flag.Bool("dry-run", false, "synthesize the schedule without contacting a server")
	pool := flag.Int("pool", 8, "placeholder structure-id pool size for -dry-run")
	flag.Parse()

	f := cliFlags{Addr: *addr, Start: *start, Step: *step, Target: *target,
		Slot: *slot, Arrival: *arrival, Seed: *seed, Mix: *mix, K: *k,
		SLO: *slo, ReportOut: *reportOut, TraceOut: *traceOut,
		SchedOut: *schedOut, DryRun: *dryRun, Pool: *pool}
	mode, err := validateFlags(f)
	if err != nil {
		usageFatal(err)
	}

	mixv, err := parseMix(f.Mix)
	if err != nil {
		usageFatal(err) // unreachable: validated above
	}
	spec := loadgen.SynthSpec{
		Seed:    f.Seed,
		Slots:   loadgen.Ramp(f.Start, f.Step, f.Target, f.Slot),
		Mix:     mixv,
		Poisson: f.Arrival == "poisson",
	}
	arrivals, err := loadgen.Synthesize(spec)
	if err != nil {
		fatal(err)
	}

	var ids []string
	runner := &loadgen.Runner{Base: "http://" + f.Addr}
	if mode == "dry" {
		for i := 0; i < f.Pool; i++ {
			ids = append(ids, fmt.Sprintf("s%03d", i))
		}
	} else {
		if ids, err = runner.FetchIDs(); err != nil {
			fatal(err)
		}
		if len(ids) < 2 {
			fatal(fmt.Errorf("server has %d structures; need >= 2 (preload a dataset or -upload)", len(ids)))
		}
	}
	reqs, err := loadgen.BuildRequests(arrivals, ids, f.Seed, f.K)
	if err != nil {
		fatal(err)
	}
	if f.SchedOut != "" {
		if err := writeFile(f.SchedOut, func(w io.Writer) error {
			return loadgen.WriteSchedule(w, reqs)
		}); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "rckload: ramp trace, %d requests over %v (seed %d, %s arrivals)\n",
		len(reqs), spec.TotalDuration(), f.Seed, f.Arrival)
	if mode == "dry" {
		return
	}

	samples, wall := runner.Run(reqs)
	rep := loadgen.BuildReport(spec, samples, wall, f.SLO)
	if f.ReportOut != "" {
		if err := writeFile(f.ReportOut, rep.WriteJSON); err != nil {
			fatal(err)
		}
	}
	if f.TraceOut != "" {
		ct := loadgen.BuildChromeTrace(samples, spec.Slots)
		if err := writeFile(f.TraceOut, ct.Write); err != nil {
			fatal(err)
		}
	}
	printReport(rep, f.SLO)
}

// printReport renders the run's SLO summary on stdout.
func printReport(rep *loadgen.Report, slo time.Duration) {
	st := stats.NewTable("Per-slot offered vs delivered",
		"Slot", "Offered RPS", "Achieved", "Goodput", "p50 ms", "p95 ms", "p99 ms", "Errors")
	for _, sl := range rep.Slots {
		st.AddRowf(sl.Slot, sl.OfferedRPS, sl.AchievedRPS, sl.GoodputRPS,
			sl.P50Ms, sl.P95Ms, sl.P99Ms, sl.Errors)
	}
	fmt.Println(st.String())
	et := stats.NewTable("Per-endpoint latency",
		"Endpoint", "Count", "Errors", "p50 ms", "p95 ms", "p99 ms", "max ms")
	for _, e := range rep.Endpoints {
		et.AddRowf(e.Op, e.Count, e.Errors, e.P50Ms, e.P95Ms, e.P99Ms, e.MaxMs)
	}
	fmt.Println(et.String())
	fmt.Printf("requests %d, goodput %.1f/s of %.1f/s offered, memo %d hits / %d misses, scheduler lag p99 %.2f ms\n",
		rep.Requests, rep.GoodputRPS, rep.OfferedRPS, rep.MemoHits, rep.MemoMisses, rep.SchedLagP99Ms)
	if len(rep.Errors) > 0 {
		fmt.Printf("errors: %v\n", rep.Errors)
	}
	if rep.Knee.Found {
		fmt.Printf("knee: %.0f RPS at slot %d (p99 %.1f ms, SLO %v) — %s\n",
			rep.Knee.OfferedRPS, rep.Knee.Slot, rep.Knee.P99Ms, slo, rep.Knee.Reason)
	} else {
		fmt.Printf("knee: not found — %s\n", rep.Knee.Reason)
	}
}

// writeFile creates path and hands it to write, closing on the way out.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rckload:", err)
	os.Exit(1)
}

// usageFatal reports a flag-validation problem: one line on stderr and
// exit code 2, matching the flag package's own bad-usage status.
func usageFatal(err error) {
	fmt.Fprintln(os.Stderr, "rckload:", err)
	os.Exit(2)
}
