package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// result is one rckalign run: its exit status, its output streams, the
// temporary directory its "$name" arguments point into, and the
// contents of each such file it wrote.
type result struct {
	code           int
	stdout, stderr string
	dir            string
	files          map[string][]byte
}

// rckalign runs the test binary as rckalign (see TestMain) from the
// module root, so the default -cache testdata/paircache is the committed
// cache. env is "" or one KEY=VALUE added to the child's environment.
// args is split on spaces, as a shell would split it: "”" is an empty
// argument, and "$name" becomes a path under a fresh t.TempDir() ("$name/"
// a directory made there first) whose file, if the run writes one, is
// returned in files[name].
func rckalign(t *testing.T, env, args string) result {
	t.Helper()
	r := result{dir: t.TempDir(), files: map[string][]byte{}}
	argv := strings.Fields(args)
	for i, a := range argv {
		switch {
		case a == "''":
			argv[i] = ""
		case strings.HasPrefix(a, "$"):
			argv[i] = filepath.Join(r.dir, a[1:])
			if strings.HasSuffix(a, "/") {
				if err := os.Mkdir(argv[i], 0o755); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	cmd := exec.Command(os.Args[0], argv...)
	cmd.Dir = "../.."
	cmd.Env = append(os.Environ(), "RCKALIGN_TEST_MAIN=1")
	if env != "" {
		cmd.Env = append(cmd.Env, env)
	}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil && cmd.ProcessState == nil {
		t.Fatalf("rckalign %s: %v", args, err)
	}
	r.code, r.stdout, r.stderr = cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
	for _, a := range strings.Fields(args) {
		if name, ok := strings.CutPrefix(a, "$"); ok {
			if b, err := os.ReadFile(filepath.Join(r.dir, name)); err == nil {
				r.files[name] = b
			}
		}
	}
	return r
}

// artifact is a run's stdout or one of its files.
func (r result) artifact(name string) []byte {
	if name == "stdout" {
		return []byte(r.stdout)
	}
	return r.files[name]
}

// linesSubset reports whether sub is non-empty and every line of it is a
// line of all.
func linesSubset(sub, all []byte) bool {
	have := map[string]bool{}
	for _, l := range strings.SplitAfter(string(all), "\n") {
		have[l] = true
	}
	for _, l := range strings.SplitAfter(string(sub), "\n") {
		if !have[l] {
			return false
		}
	}
	return len(sub) > 0
}

// counterKeys returns the counter keys of a -metrics-out snapshot.
func counterKeys(t *testing.T, raw []byte) map[string]bool {
	t.Helper()
	var snap struct {
		Counters []struct{ Key string } `json:"counters"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics snapshot: %v", err)
	}
	keys := map[string]bool{}
	for _, c := range snap.Counters {
		keys[c.Key] = true
	}
	return keys
}

// traceTracks returns the thread-track names and the counter-track names
// of a Chrome/Perfetto trace.
func traceTracks(t *testing.T, raw []byte) (threads, counters map[string]bool) {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Ph, Name string
			Args     map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	threads, counters = map[string]bool{}, map[string]bool{}
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "thread_name":
			threads[e.Args["name"].(string)] = true
		case e.Ph == "C":
			counters[e.Name] = true
		}
	}
	return threads, counters
}

// TestRunArtifacts is rckalign's contract as runs of the command: each
// row is one run (args and environment) that must exit 0, and relates
// its artifacts byte for byte to an earlier row's (like, same), to the
// committed golden scores (golden), as a subset of them (subset), or
// through a check of its own. Scores that must equal an earlier flat
// run's are held to the golden dump, which the plain row equals. Rows
// that compute pairs natively skip under -short. Under go test -race the
// children are race-instrumented too, so the board and fault rows double
// as race runs.
func TestRunArtifacts(t *testing.T) {
	const ck34 = "-dataset CK34 -slaves 47 "
	const kills = " -faults seed=1;kill=12@10;kill=30@20"
	golden, err := os.ReadFile("../../testdata/golden_scores_ck34.txt") // the default-profile CK34 dump
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name, env, args string
		native          bool     // computes pairs natively: skipped under -short
		like            string   // an earlier row ...
		same            []string // ... whose artifacts these equal byte for byte
		golden          string   // an artifact equal to the golden scores
		subset          string   // an artifact whose lines are golden lines
		check           func(t *testing.T, r result)
	}{
		{name: "trace", args: ck34 + "-metrics-out $metrics -trace-out $trace -heatmap",
			check: func(t *testing.T, r result) {
				threads, counters := traceTracks(t, r.files["trace"])
				if len(threads) < 48 {
					t.Errorf("%d thread tracks, want >= 48", len(threads))
				}
				for _, c := range []string{"farm.master.mailbox_depth", "noc.links.active"} {
					if !counters[c] {
						t.Errorf("no %s counter track in %v", c, counters)
					}
				}
				if !counterKeys(t, r.files["metrics"])["farm.jobs.completed"] {
					t.Error("metrics snapshot has no farm.jobs.completed")
				}
			}},
		{name: "trace again", args: ck34 + "-metrics-out $metrics -trace-out $trace",
			like: "trace", same: []string{"metrics", "trace"}},
		{name: "plain", args: ck34 + "-metrics-out $metrics -scores-out $scores", golden: "scores"},
		{name: "empty fault plan", args: ck34 + "-faults seed=1 -metrics-out $metrics -scores-out $scores",
			like: "plain", same: []string{"metrics", "scores"}},
		{name: "one chip", args: ck34 + "-chips 1 -metrics-out $metrics -scores-out $scores",
			like: "plain", same: []string{"stdout", "metrics", "scores"}},
		{name: "kills", args: ck34 + "-scores-out $scores" + kills, golden: "scores"},
		{name: "kills on one chip", args: ck34 + "-chips 1 -scores-out $scores" + kills,
			like: "kills", same: []string{"stdout", "scores"}},
		{name: "wire model", args: ck34 + "-structcache -1 -batch 8 -scores-out $scores", golden: "scores"},
		{name: "wire model affinity", args: ck34 + "-structcache -1 -batch 8 -affinity -scores-out $scores", golden: "scores"},
		{name: "affinity kill", args: ck34 + "-affinity -structcache -1 -batch 8 -faults seed=1;kill=12@40 -scores-out $scores",
			subset: "scores"},
		{name: "two chips", args: ck34 + "-chips 2 -scores-out $scores", golden: "scores"},
		{name: "four chips tree", args: ck34 + "-chips 4 -gather tree:2 -scores-out $scores", golden: "scores"},
		{name: "four chips flat gather", args: ck34 + "-chips 4 -gather flat -scores-out $scores", golden: "scores"},
		{name: "two chips kills", args: ck34 + "-chips 2 -scores-out $scores" + kills, golden: "scores"},
		{name: "board metrics", args: ck34 + "-chips 4 -gather tree:2 -structcache -1 -batch 8 -metrics-out $metrics",
			check: func(t *testing.T, r result) {
				keys := counterKeys(t, r.files["metrics"])
				for _, k := range []string{"farm.cache.hits{chip=c0}", "interchip.gather.messages"} {
					if !keys[k] {
						t.Errorf("board snapshot has no %s", k)
					}
				}
				link := false
				for k := range keys {
					link = link || strings.HasPrefix(k, "interchip.link.bytes{")
				}
				if !link {
					t.Error("board snapshot has no interchip.link.bytes{...}")
				}
			}},
		{name: "board metrics again", args: ck34 + "-chips 4 -gather tree:2 -structcache -1 -batch 8 -metrics-out $metrics",
			like: "board metrics", same: []string{"metrics"}},
		{name: "board interconnect", args: ck34 + "-chips 2 -interchip board"},
		{name: "board interconnect tree kills", args: ck34 + "-chips 4 -gather tree:2 -interchip board" + kills},
		{name: "sweep GOMAXPROCS=1", env: "GOMAXPROCS=1", args: "-dataset CK34 -sweep -scores-out $scores -metrics-out $metrics"},
		{name: "sweep GOMAXPROCS=4", env: "GOMAXPROCS=4", args: "-dataset CK34 -sweep -scores-out $scores -metrics-out $metrics",
			like: "sweep GOMAXPROCS=1", same: []string{"stdout", "scores", "metrics"}},
		{name: "sweep threads", args: "-dataset CK34 -sweep -threads 2 -csv",
			check: func(t *testing.T, r result) {
				if lines := strings.Split(r.stdout, "\n"); len(lines) < 2 || !strings.HasPrefix(lines[1], "3,") {
					t.Errorf("-sweep -threads 2 does not start at 3 slaves:\n%s", r.stdout)
				}
			}},
		// Host parallelism is invisible to the simulation: the same run
		// on 1 and 8 pair-store workers is experiments.TestHostParGoldenCK34.
		{name: "native sweep GOMAXPROCS=8", env: "GOMAXPROCS=8", native: true,
			args: "-dataset CK34 -sweep -fast -cache $cache/",
			check: func(t *testing.T, r result) {
				if ents, _ := os.ReadDir(filepath.Join(r.dir, "cache")); len(ents) != 0 {
					t.Errorf("-fast wrote %d entries into the default-profile pair cache", len(ents))
				}
			}},
		{name: "native default profile fills the cache", native: true,
			args: ck34 + "-cache $cache/ -scores-out $scores", golden: "scores",
			check: func(t *testing.T, r result) {
				got, err := os.ReadFile(filepath.Join(r.dir, "cache", "CK34.gob"))
				want, _ := os.ReadFile("../../testdata/paircache/CK34.gob")
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("fresh CK34.gob differs from testdata/paircache/CK34.gob (%v); diff them with "+
						"go test ./internal/core -run TestScoreDiffFiles -v -scorediff OLD,NEW", err)
				}
			}},
		// The same decisions at 1, 2 and 4 host cores: prune.TestPrunePairsPreservesOrder.
		{name: "pruned", env: "GOMAXPROCS=1", native: true,
			args: ck34 + "-cache '' -prune-tm 0.5 -scores-out $scores", subset: "scores",
			check: func(t *testing.T, r result) {
				if !strings.Contains(r.stderr, "prune: 453 of 561 pairs") {
					t.Errorf("no \"prune: 453 of 561 pairs\" line in\n%s", r.stderr)
				}
				if n := bytes.Count(r.files["scores"], []byte("\n")); n != 108 {
					t.Errorf("%d survivors, want 108", n)
				}
			}},
	}
	runs := map[string]result{}
	for _, row := range rows {
		t.Run(strings.ReplaceAll(row.name, " ", "_"), func(t *testing.T) {
			if row.native && testing.Short() {
				t.Skip("computes pairs natively")
			}
			r := rckalign(t, row.env, row.args)
			if r.code != 0 {
				t.Fatalf("rckalign %s: exit %d\n%s", row.args, r.code, r.stderr)
			}
			runs[row.name] = r
			if row.like != "" {
				prev, ok := runs[row.like]
				if !ok {
					t.Fatalf("row %q did not run; -run must select it too", row.like)
				}
				for _, a := range row.same {
					if !bytes.Equal(r.artifact(a), prev.artifact(a)) {
						t.Errorf("%s differs from row %q's", a, row.like)
					}
				}
			}
			if row.golden != "" && !bytes.Equal(r.artifact(row.golden), golden) {
				t.Errorf("%s differs from testdata/golden_scores_ck34.txt; diff them with "+
					"go test ./internal/core -run TestScoreDiffFiles -v -scorediff OLD,NEW", row.golden)
			}
			if row.subset != "" {
				if !linesSubset(r.artifact(row.subset), golden) {
					t.Errorf("%s is empty or has lines testdata/golden_scores_ck34.txt lacks", row.subset)
				}
			}
			if row.check != nil {
				row.check(t, r)
			}
		})
	}
}
