package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rckalign/internal/core"
	"rckalign/internal/sched"
	"rckalign/internal/server"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

// referenceResults returns the committed pair results of a dataset
// (testdata/paircache). The smoke test's shrunken datasets have no
// committed reference, so there it is computed serially, outside the
// store and batcher the workloads go through.
func referenceResults(cfg runConfig, ds *synth.Dataset) (*core.PairResults, error) {
	if cfg.size.small() {
		pr := cfg.size.smallRefs[ds.Name]
		if pr == nil {
			pr = core.ComputeAllPairsShared(ds, tmalign.DefaultOptions(), nil)
			cfg.size.smallRefs[ds.Name] = pr
		}
		return pr, nil
	}
	return core.LoadPairResults(ds, filepath.Join(cfg.root, "testdata", "paircache", ds.Name+".gob"))
}

// goldenLines returns the reference score line of every CK34 pair, keyed
// by pair: testdata/golden_scores_ck34.txt, or in the smoke test the
// lines of the serial reference.
func goldenLines(cfg runConfig, ds *synth.Dataset) (map[sched.Pair]string, error) {
	pairs := sched.AllVsAll(ds.Len())
	lines := make(map[sched.Pair]string, len(pairs))
	if cfg.size.small() {
		ref, err := referenceResults(cfg, ds)
		if err != nil {
			return nil, err
		}
		for k, p := range ref.Pairs {
			lines[p] = server.ScoreLine(p.I, p.J, ref.Results[k])
		}
		return lines, nil
	}
	path := filepath.Join(cfg.root, "testdata", "golden_scores_ck34.txt")
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for k := 0; sc.Scan(); k++ {
		if k >= len(pairs) {
			return nil, fmt.Errorf("%s: more than %d lines", path, len(pairs))
		}
		lines[pairs[k]] = sc.Text() + "\n"
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(lines) != len(pairs) {
		return nil, fmt.Errorf("%s: %d lines, want %d", path, len(lines), len(pairs))
	}
	return lines, nil
}

// expectedFile is bench/expected/replay.json: the simulated statistics
// and the known prune misses the benchmark pins. Simulated time is a
// pure function of the inputs, so every value must repeat exactly.
type expectedFile struct {
	// CK34Run47Seconds is the simulated makespan of the CK34 replay that
	// ends allpairs_ck34_cold.
	CK34Run47Seconds float64 `json:"ck34_run47_seconds"`
	// KnownMissed lists the RS119 pairs the prune pre-filter drops at
	// T=0.5 although their mean TM is at least 0.5. They are reported as
	// prune.missed; any other missed pair is a failed operation.
	KnownMissed []sched.Pair `json:"rs119_known_missed"`
	// Replay is what replay_rs119_sweep must reproduce.
	Replay replayStats `json:"replay"`
}

func expectedPath(root string) string {
	return filepath.Join(root, "bench", "expected", "replay.json")
}

func loadExpected(cfg runConfig) (*expectedFile, error) {
	if cfg.size.small() {
		return nil, nil
	}
	buf, err := os.ReadFile(expectedPath(cfg.root))
	if err != nil {
		return nil, err
	}
	var e expectedFile
	if err := json.Unmarshal(buf, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath(cfg.root), err)
	}
	return &e, nil
}

// firstDiff names the first line at which two multi-line texts differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, gl, wl)
		}
	}
	return "no difference"
}

// writeExpectedFile regenerates bench/expected/replay.json: the replay
// statistics and CK34 makespan of this commit's simulator, and the pairs
// this commit's pre-filter misses. Changing it is changing the benchmark.
func writeExpectedFile(cfg runConfig) error {
	var e expectedFile
	ck, err := referenceResults(cfg, cfg.size.ck())
	if err != nil {
		return err
	}
	rr, err := core.Run(ck, replaySlaves, core.DefaultConfig())
	if err != nil {
		return err
	}
	e.CK34Run47Seconds = rr.TotalSeconds

	rs := cfg.size.rs()
	ref, err := referenceResults(cfg, rs)
	if err != nil {
		return err
	}
	kept, _ := core.PrunePairs(rs, pruneThreshold)
	survivor := make(map[sched.Pair]bool, len(kept))
	for _, p := range kept {
		survivor[p] = true
	}
	for k, p := range ref.Pairs {
		if !survivor[p] && ref.Results[k].TM() >= pruneThreshold {
			e.KnownMissed = append(e.KnownMissed, p)
		}
	}

	w := &replay{cfg: cfg, ck: ck, rs: ref}
	if _, err := w.Pass(nil); err != nil {
		return err
	}
	e.Replay = w.stats
	buf, err := json.MarshalIndent(&e, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(expectedPath(cfg.root)), 0o755); err != nil {
		return err
	}
	return os.WriteFile(expectedPath(cfg.root), append(buf, '\n'), 0o644)
}
