package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rckalign/internal/core"
	"rckalign/internal/synth"
)

// metricSpec is one metric as BENCHMARK.json declares it. That file is
// the single list of names, units, directions and bounds: the program
// reads it, labels what it measured from it, and refuses to print a
// result whose metric set differs from it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// findRoot returns the repository root: the directory holding
// BENCHMARK.json, looked for in the working directory (the driver's
// checkout root) and its parent (go run/go test inside bench/).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..: run from the repository root or from bench/")
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	buf, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// sizing fixes the input sizes of every workload. full is the benchmark;
// the smoke test shrinks the datasets and request counts and runs the
// same code.
type sizing struct {
	// ck and rs build the two datasets (CK34 and RS119 in the benchmark).
	ck, rs func() *synth.Dataset
	// requests is the serve_ck34_warm request count per pass.
	requests int
	// sampleCK and sampleRS are the stage-probe sample sizes (pairs).
	sampleCK, sampleRS int
	// setupReps is the minimum number of timed set-ups per run.
	setupReps int
	// probeIters scales the direct-call probe loop counts.
	probeIters int
	// smallRefs memoizes the smoke test's serially computed references
	// by dataset name (nil in the benchmark, whose references are files).
	smallRefs map[string]*core.PairResults
}

// small reports whether this is the smoke test's sizing.
func (s sizing) small() bool { return s.smallRefs != nil }

func fullSizing() sizing {
	return sizing{ck: synth.CK34, rs: synth.RS119, requests: 8000, sampleCK: 64, sampleRS: 32, setupReps: 61, probeIters: 2000}
}

func smallSizing(seed int64) sizing {
	return sizing{
		ck: func() *synth.Dataset {
			ds := synth.Small(6, seed)
			ds.Name = "CK34"
			return ds
		},
		rs: func() *synth.Dataset {
			ds := synth.Small(7, seed+1)
			ds.Name = "RS119"
			return ds
		},
		requests: 120, sampleCK: 3, sampleRS: 3, setupReps: 1, probeIters: 20,
		smallRefs: map[string]*core.PairResults{},
	}
}

// runConfig is what one workload process is asked to do.
type runConfig struct {
	bench   *benchmarkFile
	root    string
	seed    int64
	seconds float64
	trace   bool
	workers int
	size    sizing
	// traceDir receives the per-workload Chrome trace of a traced run.
	traceDir string
}

// workload is one set of inputs and the operations measured on them.
// Setup builds everything a pass needs (timed as setup_s) and is called
// before every pass, so each pass starts from the state the workload's
// name promises (cold store, fresh server). Pass runs the measured
// operations once; with a tracer it composes the same public calls
// itself so it can put a span at each layer boundary. Check compares the
// pass's outputs with the reference and returns the number of failed
// operations (err describes the first mismatch). Layer adds the
// workload's per-layer metrics: what the traced passes' spans and the
// last pass's counters say, then the direct-call probes.
type workload interface {
	Setup() error
	Pass(tr *tracer) (ops int, err error)
	Check() (failed int, err error)
	Teardown()
	Layer(m map[string]float64, tr *tracer, passes int) error
}

// passSample is what the harness measures around one pass.
type passSample struct {
	ops      int
	wall     time.Duration
	cpu      time.Duration
	allocB   uint64
	allocs   uint64
	gcCycles uint32
	gcPause  time.Duration
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func measurePass(w workload, tr *tracer) (passSample, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0, t0 := processCPU(), time.Now()
	ops, err := w.Pass(tr)
	s := passSample{ops: ops, wall: time.Since(t0), cpu: processCPU() - cpu0}
	runtime.ReadMemStats(&m1)
	s.allocB = m1.TotalAlloc - m0.TotalAlloc
	s.allocs = m1.Mallocs - m0.Mallocs
	s.gcCycles = m1.NumGC - m0.NumGC
	s.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return s, err
}

// runResult is one workload process's outcome: the line the driver
// reads, plus what the human-readable table and the traced run need.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of v by the nearest-rank rule.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func medianOf(samples []passSample, f func(passSample) float64) float64 {
	v := make([]float64, len(samples))
	for i, s := range samples {
		v[i] = f(s)
	}
	return median(v)
}

// goroutinePeak samples runtime.NumGoroutine until stop is closed.
func goroutinePeak(stop <-chan struct{}, out chan<- int) {
	peak := runtime.NumGoroutine()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			out <- peak
			return
		case <-tick.C:
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
		}
	}
}

// runWorkload sets the workload up, measures passes for cfg.seconds,
// checks every pass and returns the metrics of the requested kind:
// end-to-end from untraced passes, per-layer from a traced run that
// spends half its time on untraced passes so it can state the tracing
// overhead.
func runWorkload(name string, cfg runConfig) (runResult, string, error) {
	w, err := newWorkload(name, cfg)
	if err != nil {
		return runResult{}, "", err
	}
	res := runResult{Correct: true, Metrics: map[string]metricValue{}}
	var setups []float64
	setup := func() error {
		// Collect the previous pass's garbage first, as measurePass does,
		// so a set-up is timed from the clean heap a new process has.
		runtime.GC()
		t0 := time.Now()
		if err := w.Setup(); err != nil {
			return fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return nil
	}
	// phase runs set-up, pass, check, teardown until budget seconds of
	// measured time are spent (at least once).
	var firstErr error
	phase := func(budget float64, tr *tracer) ([]passSample, error) {
		var samples []passSample
		for spent := 0.0; len(samples) == 0 || spent < budget; {
			if err := setup(); err != nil {
				return samples, err
			}
			s, err := measurePass(w, tr)
			if err != nil {
				w.Teardown()
				return samples, fmt.Errorf("%s: pass: %w", name, err)
			}
			failed, err := w.Check()
			w.Teardown()
			res.Attempted += s.ops
			res.Failed += failed
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("%s: check: %w", name, err)
			}
			samples = append(samples, s)
			spent += s.wall.Seconds()
			fmt.Printf("  pass %d: %d ops in %.3f s wall, %.3f s CPU, %d allocations, %d GC cycles, traced=%v\n",
				len(samples), s.ops, s.wall.Seconds(), s.cpu.Seconds(), s.allocs, s.gcCycles, tr != nil)
		}
		return samples, nil
	}

	values := map[string]float64{}
	note := ""
	if !cfg.trace {
		samples, err := phase(cfg.seconds, nil)
		if err != nil {
			return res, note, err
		}
		// More set-ups, so that setup_s is a median of many whatever the
		// number of passes; after the passes, when the heap has grown and
		// first-touch page faults no longer land in the timings.
		for len(setups) < cfg.size.setupReps {
			if err := setup(); err != nil {
				return res, note, err
			}
			w.Teardown()
		}
		endToEnd(values, samples, setups)
		note = fmt.Sprintf("(medians of %d passes, %d set-ups)", len(samples), len(setups))
	} else {
		stop, peak := make(chan struct{}), make(chan int, 1)
		go goroutinePeak(stop, peak)
		plain, err := phase(cfg.seconds/2, nil)
		tr := newTracer()
		var traced []passSample
		if err == nil {
			traced, err = phase(cfg.seconds/2, tr)
		}
		close(stop)
		values["runtime.goroutines_peak"] = float64(<-peak)
		if err != nil {
			return res, note, err
		}
		note = fmt.Sprintf("(%d untraced and %d traced passes)", len(plain), len(traced))
		all := append(append([]passSample(nil), plain...), traced...)
		values["runtime.gc_cycles"] = medianOf(all, func(s passSample) float64 { return float64(s.gcCycles) })
		values["runtime.gc_pause_ms_total"] = medianOf(all, func(s passSample) float64 { return s.gcPause.Seconds() * 1e3 })
		values["runtime.heap_alloc_kb_per_op"] = medianOf(all, func(s passSample) float64 { return float64(s.allocB) / 1024 / float64(s.ops) })
		values["runtime.peak_rss_mb"] = peakRSSMB()
		values["runtime.cpu_ms_per_op"] = medianOf(all, func(s passSample) float64 { return s.cpu.Seconds() * 1e3 / float64(s.ops) })
		wallOf := func(s passSample) float64 { return s.wall.Seconds() }
		values["bench.trace_overhead_ratio"] = medianOf(traced, wallOf) / medianOf(plain, wallOf)
		values["bench.spans"] = float64(len(tr.spans)) / float64(len(traced))
		self := tr.selfTimes()
		var busy, cpu time.Duration
		for _, d := range self {
			busy += d
		}
		for _, s := range traced {
			cpu += s.cpu
		}
		values["bench.attributed_cpu_fraction"] = busy.Seconds() / cpu.Seconds()
		if firstErr == nil {
			if err := w.Layer(values, tr, len(traced)); err != nil {
				return res, note, fmt.Errorf("%s: probes: %w", name, err)
			}
		}
		if cfg.traceDir != "" {
			if err := tr.writeChrome(filepath.Join(cfg.traceDir, name+".trace.json")); err != nil {
				return res, note, err
			}
		}
		printSelfTimes(self, cpu)
	}
	if firstErr != nil {
		res.Correct = false
		return res, note, firstErr
	}

	specs := cfg.bench.EndToEnd
	if cfg.trace {
		specs = cfg.bench.PerLayer
	}
	for _, sp := range specs {
		v, ok := values[sp.Name]
		if !ok && !cfg.trace {
			return res, note, fmt.Errorf("%s: metric %s is in BENCHMARK.json but was not measured", name, sp.Name)
		}
		// A per-layer metric a workload does not exercise reads 0.
		res.Metrics[sp.Name] = metricValue{Value: v, Unit: sp.Unit}
		delete(values, sp.Name)
	}
	for k := range values {
		return res, note, fmt.Errorf("%s: metric %s was measured but is not in BENCHMARK.json", name, k)
	}
	return res, note, nil
}

// endToEnd fills the end-to-end metrics from the untraced passes: every
// timing is a median over passes, setup_s a median over set-ups.
func endToEnd(m map[string]float64, samples []passSample, setups []float64) {
	m["setup_s"] = median(setups)
	m["wall_s"] = medianOf(samples, func(s passSample) float64 { return s.wall.Seconds() })
	m["throughput_ops_s"] = medianOf(samples, func(s passSample) float64 { return float64(s.ops) / s.wall.Seconds() })
	m["allocs_per_op"] = medianOf(samples, func(s passSample) float64 { return float64(s.allocs) / float64(s.ops) })
}

// printSelfTimes prints where the traced passes' busy time went, layer
// by layer, beside the process CPU time it should add up to.
func printSelfTimes(self map[string]time.Duration, cpu time.Duration) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	fmt.Printf("  self time by span (traced passes; process CPU %.3f s)\n", cpu.Seconds())
	for _, n := range names {
		fmt.Printf("    %-28s %10.4f s  %5.1f %%\n", n, self[n].Seconds(), 100*self[n].Seconds()/cpu.Seconds())
	}
}

// printResult prints every metric by name with its unit, then the one
// JSON line the driver reads.
func printResult(name string, res runResult, samplesNote string) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s: correct=%v attempted=%d failed=%d failed_fraction=%.6g %s\n",
		name, res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), samplesNote)
	for _, n := range names {
		mv := res.Metrics[n]
		fmt.Printf("  %-36s %16.6g %s\n", n, mv.Value, mv.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
