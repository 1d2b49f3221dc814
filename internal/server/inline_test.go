package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rckalign/internal/batcher"
	"rckalign/internal/tmalign"
)

// neverFlush is a coalescer that would hold a lone request for a minute:
// under it, anything that returns promptly did not ride the batcher.
var neverFlush = batcher.Config{BatchSize: 1000, MaxWait: time.Minute}

// seed makes the canonical pair (i, j) resident in the server's store
// without a request.
func seed(s *Server, i, j int) {
	job := jobOf(s, i, j)
	s.store.Get(s.keyFor(job), func() any { return tmalign.ComparePrepared(job.a.Get(), job.b.Get(), s.opt) })
}

// jobOf is the canonical job of database entries i and j.
func jobOf(s *Server, i, j int) pairJob {
	e := s.db.Snapshot()
	return canonicalJob(i, e[i], j, e[j])
}

// TestResidentPairsAnswerInline pins the warm path and its tracing
// contract: a request whose pairs are all resident never meets the
// coalescer — it returns while the batch timer is still a minute away,
// enqueues nothing, and reports memo hits, batch_size 0, no trigger,
// zero queue/assembly/compute and the handler time as total_s — in the
// reply and in the access log alike.
func TestResidentPairsAnswerInline(t *testing.T) {
	var log bytes.Buffer
	s, structs := newTestServer(t, 4, Config{Batch: neverFlush, AccessLog: &log})
	for o := 1; o < len(structs); o++ {
		seed(s, 0, o)
	}
	hits0 := s.Store().StatsSnapshot().Hits

	w := do(t, s, "GET", "/score?a="+structs[1].ID+"&b="+structs[0].ID, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("resident score = %d: %s", w.Code, w.Body.String())
	}
	var sr ScoreResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.MemoHit || sr.BatchSize != 0 || sr.Trigger != "" || sr.Worker != -1 || sr.QueueDepth != 0 {
		t.Errorf("inline score tracing = %+v, want memo hit, batch 0, no trigger, worker -1, depth 0", sr)
	}
	if tm := sr.Timing; tm.QueueWaitS != 0 || tm.AssemblyS != 0 || tm.ComputeS != 0 || tm.TotalS <= 0 {
		t.Errorf("inline score timing = %+v, want only total_s > 0", tm)
	}
	if sr.EnqueueOffsetS < 0 {
		t.Errorf("inline enqueue offset = %v, want the request's arrival (>= 0)", sr.EnqueueOffsetS)
	}
	if want := tmalign.Compare(structs[0], structs[1], s.opt); sr.I != 0 || sr.J != 1 || sr.TM1 != want.TM1 {
		t.Errorf("inline score row = %+v, want canonical (0,1) tm1 %v", sr.ScoreRow, want.TM1)
	}

	w = do(t, s, "POST", "/onevsall?target="+structs[0].ID, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("resident onevsall = %d: %s", w.Code, w.Body.String())
	}
	var ova OneVsAllResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ova); err != nil {
		t.Fatal(err)
	}
	if ova.MemoHits != 3 || ova.MemoMisses != 0 || len(ova.Rows) != 3 || ova.Workers == nil || len(ova.Workers) != 0 {
		t.Errorf("inline onevsall = %d hits / %d misses / %d rows / workers %v, want 3/0/3/[]",
			ova.MemoHits, ova.MemoMisses, len(ova.Rows), ova.Workers)
	}
	if tm := ova.MaxTiming; tm.QueueWaitS != 0 || tm.AssemblyS != 0 || tm.ComputeS != 0 || tm.TotalS <= 0 {
		t.Errorf("inline onevsall max_timing = %+v, want only total_s > 0", tm)
	}

	if w := do(t, s, "GET", "/topk?target="+structs[0].ID+"&k=2", nil); w.Code != http.StatusOK {
		t.Fatalf("resident topk = %d: %s", w.Code, w.Body.String())
	}

	if bs := s.BatcherStats(); bs.Enqueued != 0 || bs.Batches != 0 {
		t.Errorf("warm requests reached the coalescer: %+v", bs)
	}
	if st := s.Store().StatsSnapshot(); st.Hits != hits0+7 || st.Misses != 3 {
		t.Errorf("store stats = %+v, want %d hits (1 + 3 + 3 inline lookups) / 3 misses", st, hits0+7)
	}

	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d access-log lines, want 3:\n%s", len(lines), log.String())
	}
	for i, wantHits := range []int{1, 3, 3} {
		var e AccessEntry
		if err := json.Unmarshal([]byte(lines[i]), &e); err != nil {
			t.Fatal(err)
		}
		if e.MemoHits != wantHits || e.MemoMiss != 0 || e.BatchSize != 0 || e.Trigger != "" ||
			e.Timing.ComputeS != 0 || e.Timing.TotalS <= 0 {
			t.Errorf("access entry %d = %+v, want %d hits, batch 0, no trigger, total_s only", i, e, wantHits)
		}
	}
}

// TestPartlyWarmRowEnqueuesOnlyItsMisses: a one-vs-all whose row is
// partly resident sends exactly its misses through the coalescer, and
// the merged reply is indistinguishable from a fully cold one — same
// rows, same canonical order.
func TestPartlyWarmRowEnqueuesOnlyItsMisses(t *testing.T) {
	const n, target = 7, 3
	cold, structs := newTestServer(t, n, Config{})
	w := do(t, cold, "POST", "/onevsall?target="+structs[target].ID, nil)
	var coldResp OneVsAllResponse
	if err := json.Unmarshal(w.Body.Bytes(), &coldResp); err != nil {
		t.Fatalf("cold onevsall = %d: %v", w.Code, err)
	}
	if coldResp.MemoMisses != n-1 || cold.BatcherStats().Enqueued != n-1 {
		t.Fatalf("cold row: %d misses, %d enqueued, want %d each", coldResp.MemoMisses, cold.BatcherStats().Enqueued, n-1)
	}

	s, _ := newTestServer(t, n, Config{})
	warm := []int{0, 4, 6} // on both sides of the target's index
	for _, o := range warm {
		seed(s, target, o)
	}
	w = do(t, s, "POST", "/onevsall?target="+structs[target].ID, nil)
	var resp OneVsAllResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("partly warm onevsall = %d: %v", w.Code, err)
	}
	misses := n - 1 - len(warm)
	if bs := s.BatcherStats(); bs.Enqueued != int64(misses) || bs.Completed != bs.Enqueued {
		t.Errorf("batcher enqueued/completed = %d/%d, want exactly the %d misses", bs.Enqueued, bs.Completed, misses)
	}
	if resp.MemoHits != len(warm) || resp.MemoMisses != misses || resp.MemoHits+resp.MemoMisses != len(resp.Rows) {
		t.Errorf("memo accounting = %d hits + %d misses over %d rows, want %d + %d",
			resp.MemoHits, resp.MemoMisses, len(resp.Rows), len(warm), misses)
	}
	if !sort.SliceIsSorted(resp.Rows, func(a, b int) bool {
		ra, rb := resp.Rows[a], resp.Rows[b]
		return ra.I < rb.I || (ra.I == rb.I && ra.J < rb.J)
	}) {
		t.Errorf("rows not in canonical order: %+v", resp.Rows)
	}
	got, _ := json.Marshal(resp.Rows)
	want, _ := json.Marshal(coldResp.Rows)
	if !bytes.Equal(got, want) {
		t.Errorf("partly warm rows differ from the cold reply's:\n%s\nvs\n%s", got, want)
	}
	if resp.MaxTiming.ComputeS <= 0 || len(resp.Workers) == 0 {
		t.Errorf("the misses' coalescer trip is not reported: timing %+v workers %v", resp.MaxTiming, resp.Workers)
	}
}

// TestInFlightPairStaysSingleFlight: a pair whose first computation is
// still running is not resident — the probe declines it, every
// concurrent request for it goes through the coalescer and blocks on
// that one computation, and the store still counts a single miss.
func TestInFlightPairStaysSingleFlight(t *testing.T) {
	const burst = 8
	s, structs := newTestServer(t, 3, Config{
		Batch: batcher.Config{BatchSize: burst, MaxWait: time.Millisecond, Workers: 2},
	})
	job := jobOf(s, 0, 1)
	want := tmalign.Compare(structs[0], structs[1], s.opt)

	begun := make(chan struct{})
	release := make(chan struct{})
	computed := make(chan struct{})
	go func() {
		defer close(computed)
		s.store.Get(s.keyFor(job), func() any { close(begun); <-release; return want })
	}()
	<-begun
	if v, ok := s.store.Probe(s.keyFor(job)); ok {
		t.Fatalf("probe of an in-flight pair reported resident: %v", v)
	}

	bodies := make([]string, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := do(t, s, "GET", "/score?a="+structs[0].ID+"&b="+structs[1].ID+"&format=text", nil)
			if w.Code != http.StatusOK {
				t.Errorf("score %d = %d: %s", i, w.Code, w.Body.String())
				return
			}
			bodies[i] = w.Body.String()
		}(i)
	}
	// Every request has probed, missed and been admitted to the coalescer
	// before the computation is allowed to finish.
	for deadline := time.Now().Add(10 * time.Second); s.BatcherStats().Enqueued < burst; {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("only %d of %d requests reached the coalescer", s.BatcherStats().Enqueued, burst)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	<-computed

	for i, b := range bodies {
		if b != ScoreLine(0, 1, want) {
			t.Errorf("response %d = %q, want %q", i, b, ScoreLine(0, 1, want))
		}
	}
	if st := s.Store().StatsSnapshot(); st.Misses != 1 || st.Hits != burst {
		t.Errorf("store stats = %+v, want 1 miss / %d hits", st, burst)
	}
	// Once it has landed the pair is resident: the next request is inline.
	w := do(t, s, "GET", "/score?a="+structs[0].ID+"&b="+structs[1].ID+"&format=text", nil)
	if w.Body.String() != ScoreLine(0, 1, want) || s.BatcherStats().Enqueued != burst {
		t.Errorf("follow-up = %q with %d enqueued, want the same line and still %d",
			w.Body.String(), s.BatcherStats().Enqueued, burst)
	}
}
