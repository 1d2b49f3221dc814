package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rckalign/internal/pdb"
)

// doTraced is do with an X-Request-ID header attached.
func doTraced(t *testing.T, s *Server, method, target, reqID string) *httptest.ResponseRecorder {
	t.Helper()
	r := httptest.NewRequest(method, target, nil)
	if reqID != "" {
		r.Header.Set("X-Request-ID", reqID)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	return w
}

// TestRequestIDPropagation pins the tracing contract: a client-supplied
// X-Request-ID is echoed in the response header and body on every path
// — success, 404 and 409 alike — and timing is populated everywhere.
func TestRequestIDPropagation(t *testing.T) {
	s, structs := newTestServer(t, 4, Config{})

	// Success path: header adopted, body carries id + full timing.
	w := doTraced(t, s, "GET", "/score?a="+structs[0].ID+"&b="+structs[1].ID, "trace-me-1")
	if w.Code != http.StatusOK {
		t.Fatalf("score = %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Request-ID"); got != "trace-me-1" {
		t.Errorf("response header id = %q, want trace-me-1", got)
	}
	var sr ScoreResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.ReqID != "trace-me-1" {
		t.Errorf("body req_id = %q", sr.ReqID)
	}
	if sr.Timing.TotalS <= 0 {
		t.Errorf("score timing not populated: %+v", sr.Timing)
	}
	if sr.MemoHit {
		t.Error("first evaluation reported as memo hit")
	}
	if sr.QueueDepth < 1 {
		t.Errorf("queue depth = %d, want >= 1 (admission includes self)", sr.QueueDepth)
	}

	// Repeating the same pair must flip memo_hit.
	w = doTraced(t, s, "GET", "/score?a="+structs[0].ID+"&b="+structs[1].ID, "trace-me-2")
	var sr2 ScoreResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sr2); err != nil {
		t.Fatal(err)
	}
	if !sr2.MemoHit {
		t.Error("repeat evaluation not reported as memo hit")
	}

	// Without a client id the server assigns one.
	w = doTraced(t, s, "GET", "/score?a="+structs[0].ID+"&b="+structs[2].ID, "")
	if got := w.Header().Get("X-Request-ID"); !strings.HasPrefix(got, "r") || len(got) != 9 {
		t.Errorf("server-assigned id = %q, want r%%08d form", got)
	}

	// 404: unknown structure. JSON error body with id + timing.
	w = doTraced(t, s, "GET", "/score?a=nope&b="+structs[0].ID, "trace-404")
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown structure = %d", w.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatalf("404 body is not JSON: %v\n%s", err, w.Body.String())
	}
	if er.ReqID != "trace-404" || er.Error == "" {
		t.Errorf("404 body = %+v", er)
	}
	if er.Timing.TotalS <= 0 {
		t.Errorf("404 timing not populated: %+v", er.Timing)
	}
	if got := w.Header().Get("X-Request-ID"); got != "trace-404" {
		t.Errorf("404 header id = %q", got)
	}

	// 409: duplicate upload.
	var buf bytes.Buffer
	if err := pdb.Write(&buf, structs[0]); err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest("POST", "/structures?id="+structs[0].ID, &buf)
	r.Header.Set("X-Request-ID", "trace-409")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, r)
	if rec.Code != http.StatusConflict {
		t.Fatalf("duplicate upload = %d: %s", rec.Code, rec.Body.String())
	}
	er = ErrorResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatalf("409 body is not JSON: %v\n%s", err, rec.Body.String())
	}
	if er.ReqID != "trace-409" || er.Timing.TotalS <= 0 {
		t.Errorf("409 body = %+v", er)
	}

	// One-vs-all carries the id and per-request memo counters.
	w = doTraced(t, s, "POST", "/onevsall?target="+structs[0].ID, "trace-ova")
	if w.Code != http.StatusOK {
		t.Fatalf("onevsall = %d", w.Code)
	}
	var ova OneVsAllResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ova); err != nil {
		t.Fatal(err)
	}
	if ova.ReqID != "trace-ova" {
		t.Errorf("onevsall req_id = %q", ova.ReqID)
	}
	if ova.MemoHits+ova.MemoMisses != 3 {
		t.Errorf("onevsall memo accounting = %d hits + %d misses, want 3 pairs",
			ova.MemoHits, ova.MemoMisses)
	}
}

// TestAccessLog pins the structured access log: one parseable JSON line
// per request, including error paths, with ids, status and timing.
func TestAccessLog(t *testing.T) {
	var log bytes.Buffer
	s, structs := newTestServer(t, 3, Config{AccessLog: &log})

	doTraced(t, s, "GET", "/score?a="+structs[0].ID+"&b="+structs[1].ID, "al-1")
	doTraced(t, s, "GET", "/score?a=nope&b="+structs[0].ID, "al-2")
	doTraced(t, s, "GET", "/healthz", "al-3")

	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d access-log lines, want 3:\n%s", len(lines), log.String())
	}
	entries := make([]AccessEntry, len(lines))
	for i, ln := range lines {
		if err := json.Unmarshal([]byte(ln), &entries[i]); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, ln)
		}
		if entries[i].LatencyS <= 0 || entries[i].Timing.TotalS <= 0 {
			t.Errorf("line %d lacks latency/timing: %+v", i, entries[i])
		}
	}
	if entries[0].ReqID != "al-1" || entries[0].Endpoint != "score" || entries[0].Status != 200 {
		t.Errorf("score entry = %+v", entries[0])
	}
	if entries[0].MemoMiss != 1 || entries[0].Trigger == "" {
		t.Errorf("score entry memo/trigger = %+v", entries[0])
	}
	if entries[1].Status != 404 || entries[1].Error == "" {
		t.Errorf("404 entry = %+v", entries[1])
	}
	if entries[2].Endpoint != "healthz" || entries[2].Status != 200 {
		t.Errorf("healthz entry = %+v", entries[2])
	}
}

// TestStatszQueueDepthPeak pins the new high-water mark: after traffic
// it is at least 1 and never below the final depth.
func TestStatszQueueDepthPeak(t *testing.T) {
	s, structs := newTestServer(t, 5, Config{})
	for i := 0; i < 3; i++ {
		do(t, s, "POST", "/onevsall?target="+structs[i].ID, nil)
	}
	w := do(t, s, "GET", "/statsz", nil)
	var st Statsz
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Batcher.PeakPending < 1 {
		t.Errorf("queue depth peak = %d, want >= 1", st.Batcher.PeakPending)
	}
	if st.Batcher.PeakPending < st.Batcher.Pending {
		t.Errorf("peak %d below current depth %d",
			st.Batcher.PeakPending, st.Batcher.Pending)
	}
}
