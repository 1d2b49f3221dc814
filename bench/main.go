// Command bench is rckalign's benchmark: five workloads driven against
// the public functions of the kernel, the simulated farm and the
// comparison service, every output checked against a committed
// reference. BENCHMARK.json at the repository root names the workloads
// and metrics; README.md in this directory says why each was chosen.
//
// With -workload it runs one workload in this process and ends its
// output with one JSON line; without, it re-executes itself once per
// workload (so memory high-water marks are per workload), -runs times,
// and writes every result to one JSON file that -compare reads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func newWorkload(name string, cfg runConfig) (workload, error) {
	switch name {
	case "allpairs_ck34_cold":
		return &allPairs{cfg: cfg}, nil
	case "search_rs119_pruned":
		return &search{cfg: cfg}, nil
	case "replay_rs119_sweep":
		return &replay{cfg: cfg}, nil
	case "serve_ck34_warm":
		return &serveWarm{service: service{cfg: cfg}}, nil
	case "serve_ck34_cold":
		return &serveCold{service: service{cfg: cfg}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// hostWorkers is W: the host workers, batcher workers and closed-loop
// clients of every workload, and GOMAXPROCS.
func hostWorkers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// environment is the block recorded beside every set of results.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	W          int    `json:"w"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GitCommit  string `json:"git_commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

func readEnvironment(root string, seed int64, seconds int) environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), W: hostWorkers(),
		GoVersion: runtime.Version(), CPUModel: "unknown", GitCommit: "unknown", Seed: seed, Seconds: seconds,
	}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	return env
}

// suiteRun is one pass over every workload at one seed.
type suiteRun struct {
	Seed      int64                `json:"seed"`
	Workloads map[string]runResult `json:"workloads"`
	// Layers holds the traced run's per-layer results (with -trace 1).
	Layers map[string]runResult `json:"layers,omitempty"`
}

// suiteFile is the JSON the all-workloads mode writes and -compare reads.
type suiteFile struct {
	Env  environment `json:"env"`
	Runs []suiteRun  `json:"runs"`
}

// runChild re-executes this binary for one workload and returns the
// result on its last output line, echoing the rest.
func runChild(name string, seed int64, seconds, trace int) (runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	if err != nil {
		return runResult{}, fmt.Errorf("workload %s: %w", name, err)
	}
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("workload %s: last output line is not a result: %w", name, err)
	}
	return res, nil
}

func runSuite(root string, bf *benchmarkFile, seed int64, seconds, trace, runs int, outPath string) error {
	file := suiteFile{Env: readEnvironment(root, seed, seconds)}
	fmt.Printf("environment %+v\n", file.Env)
	for r := 0; r < runs; r++ {
		run := suiteRun{Seed: seed + int64(r), Workloads: map[string]runResult{}}
		for _, w := range bf.Workloads {
			res, err := runChild(w.Name, run.Seed, seconds, 0)
			if err != nil {
				return err
			}
			run.Workloads[w.Name] = res
			if trace != 0 {
				if run.Layers == nil {
					run.Layers = map[string]runResult{}
				}
				if run.Layers[w.Name], err = runChild(w.Name, run.Seed, seconds, 1); err != nil {
					return err
				}
			}
		}
		file.Runs = append(file.Runs, run)
	}
	buf, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}

func run() error {
	name := flag.String("workload", "", "run this one workload in-process and end with its JSON result line (default: every workload, one process each)")
	seed := flag.Int64("seed", 1, "seed of pair sampling, request mix and target order")
	seconds := flag.Int("seconds", 0, "measured seconds per workload (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans, one Chrome trace per workload under bench/out/")
	runs := flag.Int("runs", 1, "all-workloads mode: repeat the suite this many times, seeds seed, seed+1, ...")
	out := flag.String("out", "", "all-workloads mode: result file (default bench/out/result.json)")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	writeExpected := flag.Bool("write-expected", false, "regenerate bench/expected/replay.json from this commit")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		return err
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(bf, flag.Arg(0), flag.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = bf.RunSeconds
	}
	w := hostWorkers()
	runtime.GOMAXPROCS(w)
	cfg := runConfig{
		bench: bf, root: root, seed: *seed, seconds: float64(*seconds), trace: *trace != 0, workers: w,
		size: fullSizing(), traceDir: filepath.Join(root, "bench", "out"),
	}
	if *writeExpected {
		return writeExpectedFile(cfg)
	}
	if *name == "" {
		if *out == "" {
			*out = filepath.Join(root, "bench", "out", "result.json")
		}
		return runSuite(root, bf, *seed, *seconds, *trace, *runs, *out)
	}
	res, note, err := runWorkload(*name, cfg)
	if err != nil {
		return err
	}
	return printResult(*name, res, note)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
