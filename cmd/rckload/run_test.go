package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"rckalign/internal/batcher"
	"rckalign/internal/loadgen"
	"rckalign/internal/server"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

// TestMain lets the test binary stand in for the rckload command: with
// RCKLOAD_TEST_MAIN set it runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("RCKLOAD_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// rckload runs the test binary as rckload from the module root and
// returns its stderr and exit status.
func rckload(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = "../.."
	cmd.Env = append(os.Environ(), "RCKLOAD_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil && cmd.ProcessState == nil {
		t.Fatalf("rckload %v: %v", args, err)
	}
	return stderr.String(), cmd.ProcessState.ExitCode()
}

// TestUsageErrors: the removed load shapes, op mix and dry-run pool are
// undefined flags and a non-finite rate is rejected, each with exit
// status 2 and before any schedule is built.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // regexp of a stderr line
	}{
		{[]string{"-sweep"}, `flag provided but not defined: -sweep`},
		{[]string{"-dry-run", "-shape", "ramp"}, `flag provided but not defined: -shape`},
		{[]string{"-dry-run", "-rps", "50"}, `flag provided but not defined: -rps`},
		{[]string{"-dry-run", "-duration", "10s"}, `flag provided but not defined: -duration`},
		{[]string{"-dry-run", "-period", "4s"}, `flag provided but not defined: -period`},
		{[]string{"-dry-run", "-burst-rps", "200"}, `flag provided but not defined: -burst-rps`},
		{[]string{"-dry-run", "-burst-dur", "1s"}, `flag provided but not defined: -burst-dur`},
		{[]string{"-dry-run", "-amplitude", "25"}, `flag provided but not defined: -amplitude`},
		{[]string{"-dry-run", "-mix", "score=1"}, `flag provided but not defined: -mix`},
		{[]string{"-dry-run", "-pool", "8"}, `flag provided but not defined: -pool`},
		{[]string{"-dry-run", "-start", "NaN"}, `^rckload: -start NaN: must be a finite rate`},
	} {
		out, code := rckload(t, tc.args...)
		if code != 2 || !regexp.MustCompile("(?m)"+tc.want).MatchString(out) {
			t.Errorf("rckload %v: exit %d, printed %q; want exit 2 and %q", tc.args, code, out, tc.want)
		}
	}
}

// TestDryRunScheduleIsDeterministic: two dry runs with one seed write
// byte-identical schedules.
func TestDryRunScheduleIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	var scheds [2][]byte
	for i := range scheds {
		path := filepath.Join(dir, fmt.Sprintf("sched%d.jsonl", i))
		if out, code := rckload(t, "-dry-run", "-seed", "7", "-sched-out", path); code != 0 {
			t.Fatalf("dry run: exit %d\n%s", code, out)
		}
		scheds[i], _ = os.ReadFile(path)
	}
	if len(scheds[0]) == 0 || !bytes.Equal(scheds[0], scheds[1]) {
		t.Errorf("dry-run schedules differ or are empty (%d and %d bytes)", len(scheds[0]), len(scheds[1]))
	}
}

// TestRampAgainstServer runs a seeded three-slot ramp against an
// in-process rckserve of CK34 that keeps an access log. The report is
// error-free and matches testdata/slo_schema.json; the trace has client
// lanes, server workers and the load counters; every access-log line
// carries a request id and timing, and rckload's ids are unique.
func TestRampAgainstServer(t *testing.T) {
	var accessLog bytes.Buffer
	srv := server.New(server.Config{Dataset: "CK34", Options: tmalign.FastOptions(), AccessLog: &accessLog,
		Batch: batcher.Config{BatchSize: 16, Workers: 4}})
	defer srv.Close()
	if err := srv.Preload(synth.CK34().Structures); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	dir := t.TempDir()
	out := func(name string) string { return filepath.Join(dir, name) }
	stderr, code := rckload(t, "-addr", strings.TrimPrefix(ts.URL, "http://"),
		"-start", "10", "-step", "10", "-target", "30", "-slot", "300ms", "-seed", "7", "-slo", "30s",
		"-report-out", out("slo.json"), "-trace-out", out("run.trace.json"), "-sched-out", out("sched.jsonl"))
	ts.Close() // waits for every request, and so for its access-log line
	if code != 0 {
		t.Fatalf("rckload: exit %d\n%s", code, stderr)
	}

	var report map[string]any
	if err := json.Unmarshal(readFile(t, out("slo.json")), &report); err != nil {
		t.Fatal(err)
	}
	for _, e := range validateSchema(readSchema(t), report, "report") {
		t.Error(e)
	}
	if errs, _ := report["errors"].(map[string]any); len(errs) != 0 {
		t.Errorf("load run had errors: %v", errs)
	}
	slots, _ := report["slots"].([]any)
	endpoints, _ := report["endpoints"].([]any)
	if report["requests"] == 0.0 || report["goodput_rps"] == 0.0 || len(slots) != 3 || len(endpoints) == 0 {
		t.Errorf("report: %v requests, goodput %v, %d slots, %d endpoints; want some, some, 3, >= 1",
			report["requests"], report["goodput_rps"], len(slots), len(endpoints))
	}

	var trace struct {
		TraceEvents []struct {
			Ph, Name string
			Args     map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(readFile(t, out("run.trace.json")), &trace); err != nil {
		t.Fatal(err)
	}
	tracks := map[string]bool{}
	for _, e := range trace.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "thread_name":
			name, _ := e.Args["name"].(string)
			tracks[regexp.MustCompile(`\d+$`).ReplaceAllString(name, "")] = true
		case e.Ph == "C":
			tracks[e.Name] = true
		}
	}
	for _, want := range []string{"client/lane", "server/worker-", "loadgen.inflight", "loadgen.offered_rps", "server.queue_depth"} {
		if !tracks[want] {
			t.Errorf("trace has no %s track: %v", want, tracks)
		}
	}

	ids := map[string]bool{}
	lines := strings.Split(strings.TrimSpace(accessLog.String()), "\n")
	for _, l := range lines {
		var e struct {
			ReqID    string  `json:"req_id"`
			Endpoint string  `json:"endpoint"`
			LatencyS float64 `json:"latency_s"`
			Timing   struct {
				TotalS float64 `json:"total_s"`
			}
		}
		if err := json.Unmarshal([]byte(l), &e); err != nil || e.ReqID == "" || e.Endpoint == "" || e.LatencyS <= 0 || e.Timing.TotalS <= 0 {
			t.Errorf("access-log line without request id or timing (%v): %s", err, l)
		}
		if strings.HasPrefix(e.ReqID, "load-7-") {
			if ids[e.ReqID] {
				t.Errorf("request id %s logged twice", e.ReqID)
			}
			ids[e.ReqID] = true
		}
	}
	if len(ids) == 0 {
		t.Errorf("no load-7- request ids among %d access-log lines", len(lines))
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// readSchema returns testdata/slo_schema.json, the golden schema of the
// SLO report.
func readSchema(t *testing.T) map[string]any {
	t.Helper()
	var schema map[string]any
	if err := json.Unmarshal(readFile(t, "../../testdata/slo_schema.json"), &schema); err != nil {
		t.Fatalf("schema is not valid JSON: %v", err)
	}
	return schema
}

// validateSchema checks val against the JSON Schema subset the golden
// schema uses: type / required / properties / items. It returns every
// violation, so a drifted report names all missing fields at once.
func validateSchema(schema map[string]any, val any, path string) []string {
	var errs []string
	if want, ok := schema["type"].(string); ok {
		if !typeMatches(want, val) {
			return []string{fmt.Sprintf("%s: got %T, want %s", path, val, want)}
		}
	}
	if obj, ok := val.(map[string]any); ok {
		if req, ok := schema["required"].([]any); ok {
			for _, k := range req {
				if _, present := obj[k.(string)]; !present {
					errs = append(errs, fmt.Sprintf("%s: missing required field %q", path, k))
				}
			}
		}
		if props, ok := schema["properties"].(map[string]any); ok {
			for k, sub := range props {
				if v, present := obj[k]; present {
					errs = append(errs, validateSchema(sub.(map[string]any), v, path+"."+k)...)
				}
			}
		}
	}
	if arr, ok := val.([]any); ok {
		if items, ok := schema["items"].(map[string]any); ok {
			for i, v := range arr {
				errs = append(errs, validateSchema(items, v, fmt.Sprintf("%s[%d]", path, i))...)
			}
		}
	}
	return errs
}

func typeMatches(want string, val any) bool {
	switch want {
	case "object":
		_, ok := val.(map[string]any)
		return ok
	case "array":
		_, ok := val.([]any)
		return ok
	case "string":
		_, ok := val.(string)
		return ok
	case "boolean":
		_, ok := val.(bool)
		return ok
	case "number":
		_, ok := val.(float64)
		return ok
	case "integer":
		f, ok := val.(float64)
		return ok && f == math.Trunc(f)
	}
	return false
}

// TestReportMatchesGoldenSchema pins the SLO report's JSON shape to
// testdata/slo_schema.json, the schema TestRampAgainstServer holds a
// live rckload report to, on a report with an error in it. Renaming or
// removing a report field fails here without a server.
func TestReportMatchesGoldenSchema(t *testing.T) {
	spec := loadgen.SynthSpec{Seed: 1, Slots: loadgen.Ramp(2, 0, 2, 2*time.Second)}
	ms := time.Millisecond
	ok := loadgen.ServerTiming{HasTiming: true, ComputeS: 0.005, MemoHits: 1, QueueDepth: 1}
	samples := []loadgen.Sample{
		{Index: 0, Op: loadgen.OpScore, ReqID: "load-1-0", Start: ms, Latency: 10 * ms, Status: 200, Server: ok},
		{Index: 1, Op: loadgen.OpOneVsAll, ReqID: "load-1-1", Scheduled: 100 * ms, Start: 101 * ms, Latency: 40 * ms, Status: 200, Server: ok},
		{Index: 2, Op: loadgen.OpScore, ReqID: "load-1-2", Scheduled: 200 * ms, Start: 201 * ms, Status: 404,
			ErrClass: loadgen.ErrClass4xx, Err: "nope"},
	}
	var buf bytes.Buffer
	if err := loadgen.BuildReport(spec, samples, 2*time.Second, 100*ms).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	schema := readSchema(t)
	for _, e := range validateSchema(schema, doc, "report") {
		t.Error(e)
	}

	// The validator itself must reject a drifted report.
	delete(doc, "knee")
	doc["requests"] = "many"
	if errs := validateSchema(schema, doc, "report"); len(errs) < 2 {
		t.Errorf("validator accepted a drifted report: %v", errs)
	}
}
