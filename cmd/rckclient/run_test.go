package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rckalign/internal/batcher"
	"rckalign/internal/server"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

// TestMain lets the test binary stand in for the rckclient command: with
// RCKCLIENT_TEST_MAIN set it runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("RCKCLIENT_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestRemovedFlagsAreUndefined: -seed is gone (uploads use uploadSeed),
// so the flag package itself rejects it with exit status 2.
func TestRemovedFlagsAreUndefined(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-upload", "2", "-seed", "3")
	cmd.Env = append(os.Environ(), "RCKCLIENT_TEST_MAIN=1")
	out, _ := cmd.CombinedOutput()
	if want := "flag provided but not defined: -seed"; cmd.ProcessState.ExitCode() != 2 || !strings.Contains(string(out), want) {
		t.Errorf("rckclient -seed 3: exit %d, printed %q; want exit 2 and %q", cmd.ProcessState.ExitCode(), out, want)
	}
}

// TestAgainstServer drives the rckclient command against an in-process
// rckserve of CK34 in the default kernel profile, step by step as an
// operator would: a coalesced burst, uploads and a top-K query landing
// during a full dump, a second dump of the now resident pairs, a burst
// on an uploaded structure, an unknown structure and /statsz. Each step
// runs one command; its relation is checked on its output. The dumps are
// held to testdata/golden_scores_ck34.txt, the batch CLI's dump. Every
// pair is computed natively, so it skips under -short.
func TestAgainstServer(t *testing.T) {
	if testing.Short() {
		t.Skip("computes every CK34 pair natively")
	}
	srv := server.New(server.Config{Dataset: "CK34", Options: tmalign.DefaultOptions(),
		Batch: batcher.Config{BatchSize: 16, Workers: 4}})
	defer srv.Close()
	if err := srv.Preload(synth.CK34().Structures); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")
	golden, err := os.ReadFile("../../testdata/golden_scores_ck34.txt")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// rckclient runs the command and returns its stdout, stderr and exit
	// status (-1 if it did not start). It is safe on any goroutine.
	rckclient := func(args ...string) (string, string, int) {
		cmd := exec.Command(os.Args[0], append([]string{"-addr", addr}, args...)...)
		cmd.Dir = "../.."
		cmd.Env = append(os.Environ(), "RCKCLIENT_TEST_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil && cmd.ProcessState == nil {
			return "", err.Error(), -1
		}
		return stdout.String(), stderr.String(), cmd.ProcessState.ExitCode()
	}
	ok := func(args ...string) string {
		out, stderr, code := rckclient(args...)
		if code != 0 {
			t.Fatalf("rckclient %v: exit %d\n%s", args, code, stderr)
		}
		return out
	}
	stats := func() server.Statsz {
		var st server.Statsz
		if err := json.Unmarshal([]byte(ok("-stats")), &st); err != nil {
			t.Fatalf("-stats: %v", err)
		}
		return st
	}
	dump := func(name string) {
		path := filepath.Join(dir, name)
		ok("-dump", path, "-first", "34", "-c", "8")
		if got, _ := os.ReadFile(path); !bytes.Equal(got, golden) {
			t.Errorf("-dump %s differs from testdata/golden_scores_ck34.txt", name)
		}
	}

	ok("-onevsall", "glb01", "-burst", "8")
	var wg sync.WaitGroup
	for _, args := range [][]string{{"-upload", "6", "-prefix", "up", "-c", "4"}, {"-topk", "tim03", "-k", "5"}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, stderr, code := rckclient(args...); code != 0 {
				t.Errorf("rckclient %v: exit %d\n%s", args, code, stderr)
			}
		}()
	}
	dump("cold.txt")
	wg.Wait()

	// Resident pairs are answered inline: a second dump never reaches
	// the coalescer and misses nothing.
	before := stats()
	dump("warm.txt")
	after := stats()
	if after.Batcher.Enqueued != before.Batcher.Enqueued || after.Pairstore.Misses != before.Pairstore.Misses {
		t.Errorf("warm dump moved the batcher (%d -> %d enqueued) or missed the store (%d -> %d misses)",
			before.Batcher.Enqueued, after.Batcher.Enqueued, before.Pairstore.Misses, after.Pairstore.Misses)
	}
	if grew := after.Pairstore.Hits - before.Pairstore.Hits; grew < 561 {
		t.Errorf("warm dump added %d store hits, want >= 561", grew)
	}

	ok("-onevsall", "up000", "-burst", "4")
	if _, _, code := rckclient("-score", "nope,glb01"); code != 2 {
		t.Errorf("-score nope,glb01: exit %d, want 2", code)
	}

	st := stats()
	ps, bs := st.Pairstore, st.Batcher
	if ps.Misses < 561 || ps.Hits == 0 || !(ps.HitRate > 0 && ps.HitRate < 1) {
		t.Errorf("pairstore %+v: want >= 561 misses, some hits, a hit rate in (0,1)", ps)
	}
	if bs.Completed != bs.Enqueued || bs.Enqueued == 0 {
		t.Errorf("batcher completed %d of %d enqueued", bs.Completed, bs.Enqueued)
	}
	if st.BatchSizes.Count != bs.Batches || bs.Batches == 0 {
		t.Errorf("batch_sizes.count %d, batcher.batches %d", st.BatchSizes.Count, bs.Batches)
	}
	if st.Errors[404] != 1 {
		t.Errorf("errors %v, want one 404", st.Errors)
	}
	score := false
	for _, l := range st.Latency {
		score = score || l.Endpoint == "score" && l.P99S >= l.P50S && l.P50S > 0
	}
	if !score {
		t.Errorf("no score latency with p99 >= p50 > 0 in %+v", st.Latency)
	}
}
