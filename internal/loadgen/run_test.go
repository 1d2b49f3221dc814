package loadgen

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rckalign/internal/batcher"
	"rckalign/internal/server"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

// startServer brings up a real in-process comparison server preloaded
// with a small synthetic dataset — the loadgen runner is exercised end
// to end, tracing fields included.
func startServer(t *testing.T, n int) (*httptest.Server, *server.Server) {
	t.Helper()
	srv := server.New(server.Config{
		Options: tmalign.FastOptions(),
		Batch:   batcher.Config{BatchSize: 4, MaxWait: time.Millisecond, Workers: 2},
	})
	ds := synth.Small(n, 11)
	if err := srv.Preload(ds.Structures); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return hs, srv
}

func TestRunnerEndToEnd(t *testing.T) {
	hs, _ := startServer(t, 6)
	r := &Runner{Base: hs.URL}
	ids, err := r.FetchIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 6 {
		t.Fatalf("fetched %d ids, want 6", len(ids))
	}
	spec := SynthSpec{
		Seed:  3,
		Slots: []Slot{{RPS: 40, Dur: 500 * time.Millisecond}},
	}
	arr, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := BuildRequests(arr, ids, spec.Seed, 3)
	if err != nil {
		t.Fatal(err)
	}
	samples, wall := r.Run(reqs)
	if len(samples) != len(reqs) {
		t.Fatalf("%d samples for %d requests", len(samples), len(reqs))
	}
	if wall < 400*time.Millisecond {
		t.Errorf("run finished in %v — schedule not honored", wall)
	}
	sawTiming := false
	for i, s := range samples {
		if !s.OK() {
			t.Fatalf("sample %d failed: %s %s", i, s.ErrClass, s.Err)
		}
		if s.ReqID != reqs[i].ReqID {
			t.Fatalf("sample %d req id %q, want %q", i, s.ReqID, reqs[i].ReqID)
		}
		if s.Latency <= 0 {
			t.Errorf("sample %d has no latency", i)
		}
		if s.Server.HasTiming {
			sawTiming = true
			if s.Server.TotalS <= 0 {
				t.Errorf("sample %d server total %v", i, s.Server.TotalS)
			}
			if s.Server.MemoHits+s.Server.MemoMisses == 0 {
				t.Errorf("sample %d has no memo outcome: %+v", i, s.Server)
			}
		}
	}
	if !sawTiming {
		t.Error("no sample carried server timing")
	}

	rep := BuildReport(spec, samples, wall, 250*time.Millisecond)
	if rep.Requests != len(samples) || len(rep.Errors) != 0 {
		t.Errorf("report: %d requests, errors %v", rep.Requests, rep.Errors)
	}
	if rep.MemoMisses == 0 {
		t.Error("report saw no memo misses on a cold server")
	}
	if len(rep.Endpoints) == 0 || len(rep.Slots) != 1 {
		t.Errorf("report shape: %d endpoints, %d slots", len(rep.Endpoints), len(rep.Slots))
	}
	ct := BuildChromeTrace(samples, spec.Slots)
	if ct.Events() == 0 {
		t.Error("empty chrome trace from live run")
	}
}

func TestRunnerClassifiesErrors(t *testing.T) {
	hs, _ := startServer(t, 3)
	r := &Runner{Base: hs.URL}
	reqs := []Request{
		{Arrival: Arrival{Op: OpScore}, ReqID: "load-0-000000",
			Method: "GET", Path: "/score?a=nope&b=alsono"},
	}
	samples, _ := r.Run(reqs)
	if samples[0].ErrClass != ErrClass4xx {
		t.Fatalf("404 classified as %q", samples[0].ErrClass)
	}
	if !strings.Contains(samples[0].Err, "unknown structure") {
		t.Errorf("error body %q", samples[0].Err)
	}

	// Transport errors: nothing listens here.
	r2 := &Runner{Base: "http://127.0.0.1:1"}
	samples, _ = r2.Run(reqs)
	if samples[0].ErrClass != ErrClassTransport {
		t.Fatalf("refused connection classified as %q", samples[0].ErrClass)
	}
}
