package farm

import (
	"testing"

	"rckalign/internal/costmodel"
	"rckalign/internal/fault"
	"rckalign/internal/rckskel"
	"rckalign/internal/scc"
	"rckalign/internal/sched"
)

// testSizes is the test size table: structure i weighs 100*(i+1) bytes.
func testSizes(n int) []int {
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = 100 * (i + 1)
	}
	return sizes
}

// prepare is PrepareJobs on chip 0, failing the test on an error.
func prepare(t *testing.T, s *Session, pairs []sched.Pair, sizes []int) []rckskel.Job {
	t.Helper()
	jobs, err := s.PrepareJobs(0, pairs, 0, sizes)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func TestBatchHandlerRunsSubJobs(t *testing.T) {
	h := batchHandler(func(job rckskel.Job) (any, costmodel.Counter, int) {
		// One sub-result claims zero bytes: must be clamped to 1.
		b := job.ID
		return job.ID, costmodel.Counter{DPCells: uint64(10 * (job.ID + 1))}, b
	})
	batch := rckskel.Job{ID: 0, Payload: BatchPayload{Jobs: []rckskel.Job{
		{ID: 0}, {ID: 1}, {ID: 2},
	}}}
	payload, ops, bytes := h(batch)
	br, ok := payload.(BatchResult)
	if !ok || len(br.Results) != 3 {
		t.Fatalf("payload = %#v", payload)
	}
	for i, r := range br.Results {
		if r.JobID != i || r.Payload != i {
			t.Errorf("sub-result %d = %+v", i, r)
		}
	}
	if ops.DPCells != 10+20+30 {
		t.Errorf("ops did not sum: %+v", ops)
	}
	// Result frame: header + clamped(0->1) + 1 + 2.
	if want := BatchResultHeaderBytes + 1 + 1 + 2; bytes != want {
		t.Errorf("result bytes = %d, want %d", bytes, want)
	}
}

func TestPrepareJobsClassicNoop(t *testing.T) {
	s, err := New(Config{Chip: scc.DefaultConfig()}, 3)
	if err != nil {
		t.Fatal(err)
	}
	sizes := testSizes(4)
	pairs := sched.AllVsAll(4)
	out := prepare(t, s, pairs, sizes)
	if len(out) != len(pairs) {
		t.Fatalf("classic config built %d jobs for %d pairs", len(out), len(pairs))
	}
	for k, j := range out {
		p := &pairs[k]
		if j.ID != k || j.Payload != p || j.Bytes != sizes[p.I]+sizes[p.J] || j.SizeFor != nil {
			t.Errorf("job %d = %+v, want the classic job of pair %v", k, j, *p)
		}
	}
	if s.chips[0].wireTotals().report() != nil {
		t.Error("classic config must not produce a wire report")
	}
}

func TestPrepareJobsBatchAssembly(t *testing.T) {
	s, err := New(Config{Chip: scc.DefaultConfig(), Batch: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	sizes := testSizes(5)
	pairs := sched.AllVsAll(5) // 10 pairs -> batches of 4,4,2
	out := prepare(t, s, pairs, sizes)
	if len(out) != 3 {
		t.Fatalf("got %d wire jobs, want 3", len(out))
	}
	wantLens := []int{4, 4, 2}
	for k, j := range out {
		bp, ok := j.Payload.(BatchPayload)
		if !ok {
			t.Fatalf("wire job %d payload = %#v", k, j.Payload)
		}
		if len(bp.Jobs) != wantLens[k] {
			t.Errorf("batch %d holds %d jobs, want %d", k, len(bp.Jobs), wantLens[k])
		}
		if j.ID != bp.Jobs[0].ID {
			t.Errorf("batch %d ID = %d, want first sub-job %d", k, j.ID, bp.Jobs[0].ID)
		}
		if j.SizeFor == nil {
			t.Fatalf("batch %d has no SizeFor hook", k)
		}
	}
	// Without a cache, SizeFor = batch header + per-job headers + each
	// referenced structure once (the intra-batch dedup).
	first := out[0] // pairs (0,1) (0,2) (0,3) (0,4): structures 0..4 once
	wantBytes := BatchHeaderBytes + 4*BatchJobHeaderBytes + (100 + 200 + 300 + 400 + 500)
	if got := first.SizeFor(1); got != wantBytes {
		t.Errorf("batch 0 wire size = %d, want %d", got, wantBytes)
	}
	// Baseline for the same batch ships both structures per pair.
	if want := int64(4*100 + 200 + 300 + 400 + 500); s.chips[0].wire.baselineBytes != want {
		t.Errorf("baseline accounting = %d, want %d", s.chips[0].wire.baselineBytes, want)
	}
}

func TestPrepareJobsCachedSingles(t *testing.T) {
	s, err := New(Config{Chip: scc.DefaultConfig(), CacheStructs: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	out := prepare(t, s, []sched.Pair{{I: 0, J: 1}, {I: 0, J: 2}}, testSizes(3))
	if len(out) != 2 {
		t.Fatalf("cached singles must stay 1:1, got %d", len(out))
	}
	if _, ok := out[0].Payload.(*sched.Pair); !ok {
		t.Fatalf("unbatched payload = %#v", out[0].Payload)
	}
	// First dispatch to slave 1 is a cold miss on both structures.
	if got := out[0].SizeFor(1); got != PairHeaderBytes+100+200 {
		t.Errorf("cold dispatch = %d", got)
	}
	// Second job to the same slave reuses structure 0.
	if got := out[1].SizeFor(1); got != PairHeaderBytes+300 {
		t.Errorf("warm dispatch = %d", got)
	}
	// A different slave starts cold.
	if got := out[1].SizeFor(2); got != PairHeaderBytes+100+300 {
		t.Errorf("other slave = %d", got)
	}
	rep := s.chips[0].wireTotals().report()
	if rep == nil || rep.CacheCapacity != 4 || rep.CacheHits != 1 {
		t.Errorf("wire report = %+v", rep)
	}
}

// TestBatchedCachedFarmEndToEnd runs a real simulated farm with caching
// and batching on and checks the collector sees every job exactly once
// with its classic payload, and the report carries the wire block.
func TestBatchedCachedFarmEndToEnd(t *testing.T) {
	var collected []int
	s, err := New(Config{
		Chip:         scc.DefaultConfig(),
		Batch:        3,
		CacheStructs: 6,
		Collect: func(r rckskel.Result) {
			collected = append(collected, r.JobID)
		},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	pairs := sched.Blocked(sched.AllVsAll(8), 4)
	wired := prepare(t, s, pairs, testSizes(8))
	s.StartSlaves(func(job rckskel.Job) (any, costmodel.Counter, int) {
		return job.Payload, costmodel.Counter{ScoreEvals: 1e5}, 64
	})
	rep, err := s.Run(func(m *Master) {
		m.FarmWork(Work{Queues: [][]rckskel.Job{wired}}, nil)
		m.Terminate()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Collected != len(pairs) || len(collected) != len(pairs) {
		t.Fatalf("collected %d/%d results, want %d per-pair results", rep.Collected, len(collected), len(pairs))
	}
	seen := map[int]int{}
	for _, id := range collected {
		seen[id]++
	}
	for k := range pairs {
		if seen[k] != 1 {
			t.Errorf("job %d collected %d times", k, seen[k])
		}
	}
	if rep.Wire == nil {
		t.Fatal("batched run produced no wire report")
	}
	if rep.Wire.BatchedJobs != int64(len(pairs)) || rep.Wire.MaxBatchJobs != 3 {
		t.Errorf("batch stats = %+v", rep.Wire)
	}
	if rep.Wire.InputReduction <= 1 {
		t.Errorf("blocked+cached+batched reduction = %.2f, want > 1", rep.Wire.InputReduction)
	}
	if rep.Wire.CacheHitRate <= 0 {
		t.Errorf("hit rate = %v", rep.Wire.CacheHitRate)
	}
}

// TestBatchedSessionWrapsHandlerAndScalesDeadline: a batched session
// takes the per-pair handler as it is, the collector sees each per-pair
// result once, and a batch of k jobs is armed with k times the per-job
// deadline. Every job costs X seconds, so the injecting plan arms 3X per
// job and 12X per 4-job batch: a slave stalled from 3X for 7X returns its
// first batch at 11X, inside the deadline, and one stalled for 10X at
// 14X, past it. A multiplier of 3 (9X) or 5 (15X) would flip one of the
// two.
func TestBatchedSessionWrapsHandlerAndScalesDeadline(t *testing.T) {
	ops := costmodel.Counter{DPCells: 1e8}
	x := scc.DefaultConfig().CPU.Seconds(ops)
	for _, tc := range []struct {
		stall    float64
		timeouts bool
	}{{7 * x, false}, {10 * x, true}} {
		var collected []int
		s, err := New(Config{
			Chip:    scc.DefaultConfig(),
			Batch:   4,
			Faults:  &fault.Plan{Stalls: []fault.CoreStall{{Core: 1, At: 3 * x, Duration: tc.stall}}},
			Collect: func(r rckskel.Result) { collected = append(collected, r.JobID) },
		}, 2)
		if err != nil {
			t.Fatal(err)
		}
		pairs := sched.AllVsAll(6) // 15 pairs: batches of 4, 4, 4, 3
		jobs := prepare(t, s, pairs, testSizes(6))
		s.StartSlaves(func(job rckskel.Job) (any, costmodel.Counter, int) {
			if _, ok := job.Payload.(*sched.Pair); !ok {
				t.Errorf("handler got payload %#v, want a *sched.Pair", job.Payload)
			}
			return job.ID, ops, 64
		})
		rep, err := s.Run(func(m *Master) {
			m.FarmWork(Work{Queues: [][]rckskel.Job{jobs}}, nil)
			m.Terminate()
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Faults.Timeouts > 0; got != tc.timeouts {
			t.Errorf("stall %.0fX: %d timeouts, want timeouts %t", tc.stall/x, rep.Faults.Timeouts, tc.timeouts)
		}
		seen := map[int]int{}
		for _, id := range collected {
			seen[id]++
		}
		if len(collected) != len(pairs) || len(seen) != len(pairs) {
			t.Errorf("stall %.0fX: collected %d results of %d distinct jobs, want each of %d once", tc.stall/x, len(collected), len(seen), len(pairs))
		}
	}
}
