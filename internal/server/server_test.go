package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rckalign/internal/batcher"
	"rckalign/internal/pdb"
	"rckalign/internal/prune"
	"rckalign/internal/sched"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

// newTestServer preloads a small synthetic dataset and returns the
// server plus its structures. Callers must Close it.
func newTestServer(t *testing.T, n int, cfg Config) (*Server, []*pdb.Structure) {
	t.Helper()
	if cfg.Dataset == "" {
		cfg.Dataset = "test"
	}
	if cfg.Options == (tmalign.Options{}) {
		cfg.Options = tmalign.FastOptions()
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	ds := synth.Small(n, 1)
	if err := s.Preload(ds.Structures); err != nil {
		t.Fatal(err)
	}
	return s, ds.Structures
}

func do(t *testing.T, s *Server, method, target string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, target, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	return w
}

// batchDump renders the full all-vs-all score dump exactly the way
// cmd/rckalign -scores-out does: canonical pair order, %.17g floats.
func batchDump(structs []*pdb.Structure, opt tmalign.Options) string {
	var b strings.Builder
	for _, p := range sched.AllVsAll(len(structs)) {
		r := tmalign.Compare(structs[p.I], structs[p.J], opt)
		b.WriteString(ScoreLine(p.I, p.J, r))
	}
	return b.String()
}

// TestServedScoresByteIdenticalToBatchDump is the determinism contract:
// driving every pair through GET /score?format=text reproduces the
// batch CLI's -scores-out dump byte for byte.
func TestServedScoresByteIdenticalToBatchDump(t *testing.T) {
	opt := tmalign.FastOptions()
	s, structs := newTestServer(t, 6, Config{Options: opt})
	want := batchDump(structs, opt)

	var got strings.Builder
	for _, p := range sched.AllVsAll(len(structs)) {
		// Query in reversed ID order on purpose: the server must
		// canonicalize to index order before comparing.
		u := fmt.Sprintf("/score?a=%s&b=%s&format=text", structs[p.J].ID, structs[p.I].ID)
		w := do(t, s, "GET", u, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", u, w.Code, w.Body.String())
		}
		got.WriteString(w.Body.String())
	}
	if got.String() != want {
		t.Errorf("served dump differs from batch dump:\nserved:\n%s\nbatch:\n%s", got.String(), want)
	}
}

// TestOneVsAllTextMatchesBatchLines pins /onevsall?format=text rows to
// the batch dump's lines for the same pairs.
func TestOneVsAllTextMatchesBatchLines(t *testing.T) {
	opt := tmalign.FastOptions()
	s, structs := newTestServer(t, 6, Config{Options: opt})
	batchLines := map[string]bool{}
	for _, ln := range strings.SplitAfter(batchDump(structs, opt), "\n") {
		if ln != "" {
			batchLines[ln] = true
		}
	}
	for _, st := range structs {
		w := do(t, s, "POST", "/onevsall?target="+st.ID+"&format=text", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("onevsall %s = %d: %s", st.ID, w.Code, w.Body.String())
		}
		lines := strings.SplitAfter(w.Body.String(), "\n")
		if got := len(lines) - 1; got != len(structs)-1 {
			t.Fatalf("onevsall %s returned %d lines, want %d", st.ID, got, len(structs)-1)
		}
		for _, ln := range lines[:len(lines)-1] {
			if !batchLines[ln] {
				t.Errorf("onevsall %s line not in batch dump: %q", st.ID, ln)
			}
		}
	}
}

// TestCoalescedBurstComputesEachPairOnce is the exactly-once guarantee:
// a burst of concurrent one-vs-all requests against the same target
// computes each distinct pair exactly once (pairstore misses) and every
// response is byte-identical.
func TestCoalescedBurstComputesEachPairOnce(t *testing.T) {
	const n, burst = 8, 16
	s, structs := newTestServer(t, n, Config{
		Batch: batcher.Config{BatchSize: 8, MaxWait: time.Millisecond, Workers: 4},
	})
	target := structs[3].ID

	bodies := make([]string, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := do(t, s, "POST", "/onevsall?target="+target+"&format=text", nil)
			if w.Code == http.StatusOK {
				bodies[i] = w.Body.String()
			}
		}(i)
	}
	wg.Wait()

	for i, b := range bodies {
		if b == "" {
			t.Fatalf("burst request %d failed", i)
		}
		if b != bodies[0] {
			t.Errorf("burst response %d differs from response 0:\n%s\nvs\n%s", i, b, bodies[0])
		}
	}
	ps := s.Store().StatsSnapshot()
	wantMisses := int64(n - 1)
	if ps.Misses != wantMisses {
		t.Errorf("pairstore misses = %d, want exactly %d (each pair computed once)", ps.Misses, wantMisses)
	}
	if total := ps.Hits + ps.Misses; total != int64(burst*(n-1)) {
		t.Errorf("pairstore gets = %d, want %d", total, burst*(n-1))
	}
	// Every pair goes through the coalescer at least once; a request that
	// arrives after a pair became resident answers it inline instead.
	bs := s.BatcherStats()
	if bs.Enqueued < wantMisses || bs.Enqueued > int64(burst*(n-1)) || bs.Completed != bs.Enqueued {
		t.Errorf("batcher enqueued/completed = %d/%d, want equal and in [%d, %d]",
			bs.Enqueued, bs.Completed, wantMisses, burst*(n-1))
	}
	if bs.MaxBatch < 2 {
		t.Errorf("max batch = %d, want coalescing (>= 2) in a %d-request burst", bs.MaxBatch, burst)
	}
}

// TestUploadScoreRoundTrip exercises the mutable database: upload new
// structures over HTTP, then score them against preloaded ones.
func TestUploadScoreRoundTrip(t *testing.T) {
	s, structs := newTestServer(t, 4, Config{})
	up := synth.Small(6, 99).Structures[4] // IDs disjoint from seed-1 prefix set by index
	up = up.Clone()
	up.ID = "upload01"
	var pdbText bytes.Buffer
	if err := pdb.Write(&pdbText, up); err != nil {
		t.Fatal(err)
	}

	w := do(t, s, "POST", "/structures?id=upload01", pdbText.Bytes())
	if w.Code != http.StatusCreated {
		t.Fatalf("upload = %d: %s", w.Code, w.Body.String())
	}
	var ur UploadResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ur); err != nil {
		t.Fatal(err)
	}
	if ur.ID != "upload01" || ur.Index != 4 || ur.Residues != up.Len() {
		t.Errorf("upload response = %+v", ur)
	}

	// Duplicate ID -> 409.
	if w := do(t, s, "POST", "/structures?id=upload01", pdbText.Bytes()); w.Code != http.StatusConflict {
		t.Errorf("duplicate upload = %d, want 409", w.Code)
	}
	// Garbage body -> 400.
	if w := do(t, s, "POST", "/structures?id=bad", []byte("not a pdb file\n")); w.Code != http.StatusBadRequest {
		t.Errorf("garbage upload = %d, want 400", w.Code)
	}

	// Score the upload against a preloaded structure, both orders; the
	// canonical orientation makes them identical.
	w1 := do(t, s, "GET", "/score?a=upload01&b="+structs[0].ID+"&format=text", nil)
	w2 := do(t, s, "GET", "/score?a="+structs[0].ID+"&b=upload01&format=text", nil)
	if w1.Code != http.StatusOK || w2.Code != http.StatusOK {
		t.Fatalf("score codes = %d/%d", w1.Code, w2.Code)
	}
	if w1.Body.String() != w2.Body.String() {
		t.Errorf("score is orientation-dependent:\n%s\nvs\n%s", w1.Body.String(), w2.Body.String())
	}
	if !strings.HasPrefix(w1.Body.String(), "0 4 ") {
		t.Errorf("score line not in canonical index order: %q", w1.Body.String())
	}
}

// TestUnknownStructureIs404 pins the typed-error mapping.
func TestUnknownStructureIs404(t *testing.T) {
	s, structs := newTestServer(t, 3, Config{})
	for _, u := range []string{
		"/score?a=nope&b=" + structs[0].ID,
		"/score?a=" + structs[0].ID + "&b=nope",
		"/topk?target=nope",
	} {
		if w := do(t, s, "GET", u, nil); w.Code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404: %s", u, w.Code, w.Body.String())
		}
	}
	if w := do(t, s, "POST", "/onevsall?target=nope", nil); w.Code != http.StatusNotFound {
		t.Errorf("onevsall unknown = %d, want 404", w.Code)
	}
	if w := do(t, s, "GET", "/score?a="+structs[0].ID+"&b="+structs[0].ID, nil); w.Code != http.StatusBadRequest {
		t.Errorf("self-pair = %d, want 400", w.Code)
	}
	// The sentinel is matchable by callers.
	_, _, err := s.db.Lookup("nope")
	if !errors.Is(err, ErrUnknownStructure) {
		t.Errorf("Lookup error = %v, want ErrUnknownStructure", err)
	}
}

// TestTopK checks ranking: neighbors sorted by target-normalised TM
// descending, k capped at the database size.
func TestTopK(t *testing.T) {
	opt := tmalign.FastOptions()
	s, structs := newTestServer(t, 6, Config{Options: opt})
	target := 2
	w := do(t, s, "GET", fmt.Sprintf("/topk?target=%s&k=3", structs[target].ID), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("topk = %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		Target    string     `json:"target"`
		K         int        `json:"k"`
		Neighbors []Neighbor `json:"neighbors"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.K != 3 || len(resp.Neighbors) != 3 {
		t.Fatalf("topk returned %d/%d neighbors", resp.K, len(resp.Neighbors))
	}
	if !sort.SliceIsSorted(resp.Neighbors, func(a, b int) bool {
		return resp.Neighbors[a].TM > resp.Neighbors[b].TM
	}) {
		t.Errorf("neighbors not sorted by TM desc: %+v", resp.Neighbors)
	}
	// Cross-check the winner against direct computation.
	bestTM, bestIdx := -1.0, -1
	for o := range structs {
		if o == target {
			continue
		}
		lo, hi := target, o
		if o < target {
			lo, hi = o, target
		}
		r := tmalign.Compare(structs[lo], structs[hi], opt)
		tm := r.TM2
		if lo == target {
			tm = r.TM1
		}
		if tm > bestTM {
			bestTM, bestIdx = tm, o
		}
	}
	if resp.Neighbors[0].Index != bestIdx || resp.Neighbors[0].TM != bestTM {
		t.Errorf("top neighbor = %+v, want index %d tm %v", resp.Neighbors[0], bestIdx, bestTM)
	}
	// k larger than the database clips.
	w = do(t, s, "GET", fmt.Sprintf("/topk?target=%s&k=100", structs[target].ID), nil)
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Neighbors) != len(structs)-1 {
		t.Errorf("k=100 returned %d neighbors, want %d", len(resp.Neighbors), len(structs)-1)
	}
	if w := do(t, s, "GET", "/topk?target="+structs[0].ID+"&k=zero", nil); w.Code != http.StatusBadRequest {
		t.Errorf("bad k = %d, want 400", w.Code)
	}
}

// TestConcurrentUploadsAndQueries races the mutable database against
// queries; run with -race. Uploads use a disjoint dataset so they never
// collide with preloaded IDs.
func TestConcurrentUploadsAndQueries(t *testing.T) {
	s, structs := newTestServer(t, 5, Config{})
	extra := synth.Small(8, 7).Structures
	var wg sync.WaitGroup
	for i, st := range extra {
		wg.Add(1)
		go func(i int, st *pdb.Structure) {
			defer wg.Done()
			st = st.Clone()
			st.ID = fmt.Sprintf("up%02d", i)
			var buf bytes.Buffer
			if err := pdb.Write(&buf, st); err != nil {
				t.Error(err)
				return
			}
			if w := do(t, s, "POST", "/structures?id="+st.ID, buf.Bytes()); w.Code != http.StatusCreated {
				t.Errorf("upload %s = %d: %s", st.ID, w.Code, w.Body.String())
			}
		}(i, st)
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, b := structs[i%len(structs)], structs[(i+1)%len(structs)]
			if w := do(t, s, "GET", "/score?a="+a.ID+"&b="+b.ID, nil); w.Code != http.StatusOK {
				t.Errorf("score = %d: %s", w.Code, w.Body.String())
			}
			if w := do(t, s, "POST", "/onevsall?target="+a.ID, nil); w.Code != http.StatusOK {
				t.Errorf("onevsall = %d: %s", w.Code, w.Body.String())
			}
		}(i)
	}
	wg.Wait()
	if got := s.db.Len(); got != 5+len(extra) {
		t.Errorf("db len = %d, want %d", got, 5+len(extra))
	}
}

// TestStatszExposure drives traffic and checks the observability
// payload: pairstore hit rate, batch-size histogram, queue depth and
// latency quantiles all present and consistent.
func TestStatszExposure(t *testing.T) {
	s, structs := newTestServer(t, 5, Config{})
	for i := 0; i < 3; i++ {
		do(t, s, "POST", "/onevsall?target="+structs[0].ID, nil)
	}
	do(t, s, "GET", "/score?a="+structs[1].ID+"&b="+structs[2].ID, nil)

	w := do(t, s, "GET", "/healthz", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"ok"`) {
		t.Fatalf("healthz = %d: %s", w.Code, w.Body.String())
	}
	w = do(t, s, "GET", "/statsz", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("statsz = %d: %s", w.Code, w.Body.String())
	}
	var st Statsz
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("statsz not valid JSON: %v\n%s", err, w.Body.String())
	}
	if st.Structures != 5 {
		t.Errorf("statsz structures = %d", st.Structures)
	}
	if st.Pairstore.Misses == 0 || st.Pairstore.Hits == 0 || st.Pairstore.HitRate <= 0 {
		t.Errorf("pairstore stats not populated: %+v", st.Pairstore)
	}
	if st.Batcher.Batches == 0 || st.Batcher.Completed != st.Batcher.Enqueued {
		t.Errorf("batcher stats not consistent: %+v", st.Batcher)
	}
	if st.BatchSizes.Count != st.Batcher.Batches || len(st.BatchSizes.Buckets) == 0 {
		t.Errorf("batch-size histogram = %+v, want %d batches", st.BatchSizes, st.Batcher.Batches)
	}
	seen := map[string]bool{}
	for _, l := range st.Latency {
		seen[l.Endpoint] = true
		if l.Count == 0 || l.P50S <= 0 || l.P95S < l.P50S || l.P99S < l.P95S {
			t.Errorf("latency summary inconsistent: %+v", l)
		}
	}
	if !seen["onevsall"] || !seen["score"] {
		t.Errorf("latency endpoints = %+v, want onevsall and score", st.Latency)
	}
}

// TestCloseDrainsThen503 pins graceful shutdown: queries after Close
// get 503 instead of hanging or panicking — also when every pair they
// need is resident and the store could have answered them inline.
func TestCloseDrainsThen503(t *testing.T) {
	s, structs := newTestServer(t, 3, Config{})
	if w := do(t, s, "GET", "/score?a="+structs[0].ID+"&b="+structs[1].ID, nil); w.Code != http.StatusOK {
		t.Fatalf("pre-close score = %d", w.Code)
	}
	if w := do(t, s, "POST", "/onevsall?target="+structs[0].ID, nil); w.Code != http.StatusOK {
		t.Fatalf("pre-close onevsall = %d", w.Code)
	}
	s.Close()
	if w := do(t, s, "GET", "/score?a="+structs[0].ID+"&b="+structs[1].ID, nil); w.Code != http.StatusServiceUnavailable {
		t.Errorf("post-close score = %d, want 503", w.Code)
	}
	if w := do(t, s, "POST", "/onevsall?target="+structs[0].ID, nil); w.Code != http.StatusServiceUnavailable {
		t.Errorf("post-close onevsall = %d, want 503", w.Code)
	}
	if w := do(t, s, "GET", "/topk?target="+structs[0].ID, nil); w.Code != http.StatusServiceUnavailable {
		t.Errorf("post-close topk = %d, want 503", w.Code)
	}
	// Uploads and stats still work on a draining server.
	if w := do(t, s, "GET", "/statsz", nil); w.Code != http.StatusOK {
		t.Errorf("post-close statsz = %d", w.Code)
	}
}

// TestDegenerateUploadRejected: structures the kernel cannot align are
// rejected at the door with 400 — a chain too short to align, and a
// file whose coordinate columns parse to NaN (strconv.ParseFloat
// accepts "NaN", so the PDB parser alone does not catch it).
func TestDegenerateUploadRejected(t *testing.T) {
	s, _ := newTestServer(t, 3, Config{})

	short := "ATOM      1  CA  ALA A   1       0.000   0.000   0.000\n" +
		"ATOM      2  CA  ALA A   2       3.800   0.000   0.000\n"
	if w := do(t, s, "POST", "/structures?id=short", []byte(short)); w.Code != http.StatusBadRequest {
		t.Errorf("2-residue upload = %d, want 400: %s", w.Code, w.Body.String())
	}

	nan := synth.Small(4, 55).Structures[3].Clone()
	nan.ID = "nanstruct"
	nan.Residues[2].CA[0] = math.NaN()
	var buf bytes.Buffer
	if err := pdb.Write(&buf, nan); err != nil {
		t.Fatal(err)
	}
	w := do(t, s, "POST", "/structures?id=nanstruct", buf.Bytes())
	if w.Code != http.StatusBadRequest {
		t.Errorf("NaN upload = %d, want 400: %s", w.Code, w.Body.String())
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "degenerate") {
		t.Errorf("rejection does not name the cause: %q", er.Error)
	}
	// Neither structure was stored.
	if w := do(t, s, "GET", "/score?a=short&b=nanstruct", nil); w.Code != http.StatusNotFound {
		t.Errorf("score on rejected uploads = %d, want 404", w.Code)
	}

	// A finite coordinate no PDB column holds: "1e200" in the x field of
	// one CA record parses, and once stored would pin a worker in the
	// kernel's cutoff relaxation.
	buf.Reset()
	if err := pdb.Write(&buf, synth.CK34().Structures[2]); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	lines[5] = lines[5][:30] + fmt.Sprintf("%8s", "1e200") + lines[5][38:]
	w = do(t, s, "POST", "/structures?id=huge", []byte(strings.Join(lines, "")))
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "degenerate") {
		t.Errorf("1e200 upload = %d, want 400 naming the cause: %s", w.Code, w.Body.String())
	}
}

// TestDegenerateStoredStructureServes422: a degenerate structure that
// bypassed upload validation (Preload trusts its caller) turns queries
// touching it into 422 responses — the kernel's typed precondition
// errors cross the recovery boundary instead of crashing the server,
// and the error is memoized like any result.
func TestDegenerateStoredStructureServes422(t *testing.T) {
	s, structs := newTestServer(t, 3, Config{})
	bad := synth.Small(4, 56).Structures[3].Clone()
	bad.ID = "poison"
	bad.Residues[0].CA[2] = math.NaN()
	if err := s.Preload([]*pdb.Structure{bad}); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ { // twice: the second hit serves the memoized error
		w := do(t, s, "GET", "/score?a=poison&b="+structs[0].ID, nil)
		if w.Code != http.StatusUnprocessableEntity {
			t.Fatalf("score against poison = %d, want 422: %s", w.Code, w.Body.String())
		}
		var er ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(er.Error, "degenerate") || !strings.Contains(er.Error, "poison") {
			t.Errorf("422 body does not identify the structure: %q", er.Error)
		}
	}
	// Multi-pair queries touching the poison pair fail the same way...
	if w := do(t, s, "POST", "/onevsall?target=poison", nil); w.Code != http.StatusUnprocessableEntity {
		t.Errorf("onevsall target=poison = %d, want 422", w.Code)
	}
	if w := do(t, s, "GET", "/topk?target="+structs[0].ID+"&k=2", nil); w.Code != http.StatusUnprocessableEntity {
		t.Errorf("topk sweeping over poison = %d, want 422", w.Code)
	}
	// ...and healthy pairs keep serving.
	if w := do(t, s, "GET", "/score?a="+structs[0].ID+"&b="+structs[1].ID, nil); w.Code != http.StatusOK {
		t.Errorf("healthy pair after poison queries = %d, want 200", w.Code)
	}
}

// TestConcurrentPrunedOneVsAll: under -prune-tm every sweep bounds its
// pairs with its own prune.Filter and only the features cache is shared,
// so concurrent /onevsall requests neither serialise nor disturb each
// other: four at a time return the rows and pruned counts a serial
// client gets. Run under -race.
func TestConcurrentPrunedOneVsAll(t *testing.T) {
	const n, clients = 10, 4
	cfg := Config{PruneTM: 0.5, Batch: batcher.Config{BatchSize: 8, MaxWait: time.Millisecond, Workers: 2}}
	sweep := func(s *Server, id string) (OneVsAllResponse, error) {
		var resp OneVsAllResponse
		w := do(t, s, "POST", "/onevsall?target="+id, nil)
		if w.Code != http.StatusOK {
			return resp, fmt.Errorf("onevsall %s = %d: %s", id, w.Code, w.Body.String())
		}
		return resp, json.Unmarshal(w.Body.Bytes(), &resp)
	}

	serial, structs := newTestServer(t, n, cfg)
	want := make([]OneVsAllResponse, n)
	prunedTotal := 0
	for i, st := range structs {
		var err error
		if want[i], err = sweep(serial, st.ID); err != nil {
			t.Fatal(err)
		}
		if want[i].Count+want[i].Pruned != n-1 {
			t.Fatalf("serial %s: %d rows + %d pruned, want %d pairs", st.ID, want[i].Count, want[i].Pruned, n-1)
		}
		prunedTotal += want[i].Pruned
	}
	if prunedTotal == 0 || prunedTotal == n*(n-1) {
		t.Fatalf("serial sweeps pruned %d of %d pairs: the test needs both outcomes", prunedTotal, n*(n-1))
	}

	s, _ := newTestServer(t, n, cfg)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Each client starts on a different target, so the four
			// sweeps in flight fill the features cache concurrently.
			for k := 0; k < n; k++ {
				i := (k + c*n/clients) % n
				got, err := sweep(s, structs[i].ID)
				if err != nil {
					t.Error(err)
					return
				}
				if got.Pruned != want[i].Pruned || !reflect.DeepEqual(got.Rows, want[i].Rows) {
					t.Errorf("client %d, target %s: %d rows, %d pruned; serial answer %d rows, %d pruned",
						c, structs[i].ID, len(got.Rows), got.Pruned, len(want[i].Rows), want[i].Pruned)
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestPrunedSweepMatchesBound: a pruned /onevsall decides with
// Filter.SkipAll, the target as the query and the others in index
// order, as core.PrunePairs does. For every CK34 target at two
// thresholds its rows are exactly the pairs whose canonical Bound(a, b)
// reaches the threshold, and pruned counts the rest. Every pair is made
// resident with a stand-in result first, so no kernel runs.
func TestPrunedSweepMatchesBound(t *testing.T) {
	ds := synth.CK34()
	feats := make([]prune.Features, ds.Len())
	for i, st := range ds.Structures {
		feats[i] = prune.Extract(st.CAs(), st.Sequence())
	}
	stand := &tmalign.Result{TM1: 0.5, TM2: 0.5, RMSD: 1, AlignedLen: 10, SeqID: 0.1}
	for _, thr := range []float64{0.3, 0.5} {
		s := New(Config{Dataset: ds.Name, Options: tmalign.FastOptions(), PruneTM: thr})
		t.Cleanup(s.Close)
		if err := s.Preload(ds.Structures); err != nil {
			t.Fatal(err)
		}
		for _, p := range sched.AllVsAll(ds.Len()) {
			s.store.Get(s.keyFor(jobOf(s, p.I, p.J)), func() any { return stand })
		}
		f := prune.New(thr)
		prunedTotal := 0
		for ti, st := range ds.Structures {
			var want [][2]int
			pruned := 0
			for o := range ds.Structures {
				if o == ti {
					continue
				}
				if i, j := min(ti, o), max(ti, o); f.Bound(&feats[i], &feats[j]) < thr {
					pruned++
				} else {
					want = append(want, [2]int{i, j})
				}
			}
			w := do(t, s, "POST", "/onevsall?target="+st.ID, nil)
			var resp OneVsAllResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusOK {
				t.Fatalf("T=%v onevsall %s = %d (%v): %s", thr, st.ID, w.Code, err, w.Body.String())
			}
			var got [][2]int
			for _, r := range resp.Rows {
				got = append(got, [2]int{r.I, r.J})
			}
			if resp.Pruned != pruned || resp.Count != len(want) || !reflect.DeepEqual(got, want) {
				t.Errorf("T=%v target %s: rows %v, %d pruned; Bound keeps %v, prunes %d", thr, st.ID, got, resp.Pruned, want, pruned)
			}
			prunedTotal += resp.Pruned
		}
		if thr == 0.5 && prunedTotal != 2*453 {
			t.Errorf("T=0.5: sweeps pruned %d pair ends, want 2 x 453 (the batch run's prune line)", prunedTotal)
		}
	}
}

// TestStatszUnderConcurrentTraffic polls /statsz while concurrent
// /onevsall bursts run. Every snapshot's batch-size histogram counts
// exactly the batcher's batches, because one lock owns both, and no
// endpoint's latency count ever goes down. Run under -race.
func TestStatszUnderConcurrentTraffic(t *testing.T) {
	const n, clients = 12, 4
	s, structs := newTestServer(t, n, Config{Batch: batcher.Config{BatchSize: 4, MaxWait: time.Millisecond, Workers: 2}})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				id := structs[(k+c*n/clients)%n].ID
				if w := do(t, s, "POST", "/onevsall?target="+id, nil); w.Code != http.StatusOK {
					t.Errorf("onevsall %s = %d: %s", id, w.Code, w.Body.String())
					return
				}
			}
		}(c)
	}
	go func() { wg.Wait(); close(done) }()
	last := map[string]int64{}
	polls, midTraffic := 0, 0
	for running := true; running; polls++ {
		select {
		case <-done:
			running = false
		default:
		}
		var st Statsz
		if err := json.Unmarshal(do(t, s, "GET", "/statsz", nil).Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.BatchSizes.Count != st.Batcher.Batches {
			t.Errorf("poll %d: batch_sizes.count %d, batcher.batches %d", polls, st.BatchSizes.Count, st.Batcher.Batches)
		}
		for _, l := range st.Latency {
			if l.Count < last[l.Endpoint] {
				t.Errorf("poll %d: %s latency count fell from %d to %d", polls, l.Endpoint, last[l.Endpoint], l.Count)
			}
			last[l.Endpoint] = l.Count
		}
		if running && st.Batcher.Batches > 0 {
			midTraffic++
		}
	}
	if last["onevsall"] != n*clients {
		t.Errorf("final onevsall latency count %d, want %d", last["onevsall"], n*clients)
	}
	t.Logf("%d polls, %d of them with batches flushed and traffic still running", polls, midTraffic)
}
