package farm

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"rckalign/internal/costmodel"
	"rckalign/internal/noc"
	"rckalign/internal/rckskel"
	"rckalign/internal/scc"
	"rckalign/internal/sched"
)

func TestPlaceSkipsMaster(t *testing.T) {
	p, err := place(Config{Chip: scc.DefaultConfig()}, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 4}
	if !reflect.DeepEqual(p.WorkerLeads, want) {
		t.Errorf("WorkerLeads = %v, want %v", p.WorkerLeads, want)
	}
	if p.Threads != 1 || p.OpScale != 1 || p.EffectiveCores != 4 || p.DroppedCores != 0 {
		t.Errorf("unexpected placement %+v", p)
	}
}

func TestPlaceThreadGrouping(t *testing.T) {
	p, err := place(Config{Chip: scc.DefaultConfig(), ThreadsPerWorker: 2}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.WorkerLeads, []int{1, 3, 5}) {
		t.Errorf("WorkerLeads = %v, want [1 3 5]", p.WorkerLeads)
	}
	if p.EffectiveCores != 6 || p.DroppedCores != 1 {
		t.Errorf("effective/dropped = %d/%d, want 6/1", p.EffectiveCores, p.DroppedCores)
	}
	want := 1.0 / (2 * 0.9)
	if p.OpScale != want {
		t.Errorf("OpScale = %v, want %v", p.OpScale, want)
	}
	// A single core cannot form a 2-thread worker.
	if _, err := place(Config{Chip: scc.DefaultConfig(), ThreadsPerWorker: 2}, 1); err == nil {
		t.Error("expected error for 1 slave with 2-thread workers")
	}
}

func TestPlaceValidation(t *testing.T) {
	if _, err := place(Config{Chip: scc.DefaultConfig()}, 0); err == nil {
		t.Error("expected error for zero slaves")
	}
	if _, err := place(Config{}, 1); err == nil {
		t.Error("expected error for a zero-value chip")
	}
}

// TestBuildJobs: PrepareJobs numbers a chip's jobs from idBase, points
// each at its pair and sizes it at both structures' bytes; Scatter then
// prices each remote shard at ShardHeaderBytes, a ShardJobHeaderBytes
// descriptor per pair and every distinct structure once — an empty
// shard at its header alone, chip 0's at nothing.
func TestBuildJobs(t *testing.T) {
	s, err := New(Config{Chips: 3, Chip: scc.DefaultConfig()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	shards := [][]sched.Pair{{{I: 2, J: 3}}, {{I: 0, J: 1}, {I: 0, J: 2}}, nil}
	work := make([]Work, len(shards))
	for c, pairs := range shards {
		jobs, err := s.PrepareJobs(c, pairs, 10*c, testSizes(4))
		if err != nil {
			t.Fatalf("PrepareJobs(%d): %v", c, err)
		}
		work[c] = Work{Queues: [][]rckskel.Job{jobs}}
	}
	jobs := work[1].Queues[0]
	if len(jobs) != 2 || jobs[0].ID != 10 || jobs[1].ID != 11 {
		t.Fatalf("chip 1 jobs = %+v, want IDs 10, 11", jobs)
	}
	if jobs[1].Bytes != 100+300 || jobs[1].Payload.(*sched.Pair) != &shards[1][1] {
		t.Errorf("job 11 = %+v, want pair (0,2) at 400 bytes", jobs[1])
	}
	s.StartSlaves(func(job rckskel.Job) (any, costmodel.Counter, int) {
		return job.Payload, costmodel.Counter{ScoreEvals: 1e5}, 64
	})
	rep, err := s.Run(rootBody(100, work))
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, ShardHeaderBytes + 2*ShardJobHeaderBytes + 100 + 200 + 300, ShardHeaderBytes}
	for c, cr := range rep.PerChip {
		if cr.ShardBytes != want[c] {
			t.Errorf("chip %d shard = %d bytes, want %d", c, cr.ShardBytes, want[c])
		}
	}
	if rep.Collected != 3 {
		t.Errorf("collected %d results, want 3", rep.Collected)
	}
}

// TestSweepStopsOnError: points that share state run one after another
// on the calling goroutine and stop at the first failure.
func TestSweepStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	var seen []int
	out, err := Sweep([]int{1, 2, 3}, true, func(n int) (int, error) {
		seen = append(seen, n)
		if n == 2 {
			return 0, boom
		}
		return n * n, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if !reflect.DeepEqual(seen, []int{1, 2}) {
		t.Errorf("ran %v, want [1 2]", seen)
	}
	if !reflect.DeepEqual(out, []int{1}) {
		t.Errorf("out = %v, want [1]", out)
	}
}

// TestSweepConcurrentOrder: independent points run on several
// goroutines, yet results come back in input order, and when point k and
// a later one both fail the outcome is the serial one — exactly the k
// earlier results and point k's error.
func TestSweepConcurrentOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	points := make([]int, 40)
	for i := range points {
		points[i] = i
	}
	square := func(n int) (int, error) { return n * n, nil }
	out, err := Sweep(points, false, square)
	if err != nil || len(out) != len(points) {
		t.Fatalf("Sweep = %d results, %v", len(out), err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}

	const k = 7
	first, later := errors.New("first"), errors.New("later")
	laterFailed := make(chan struct{})
	out, err = Sweep(points, false, func(n int) (int, error) {
		switch n {
		case k:
			<-laterFailed // the later failure lands first
			return 0, first
		case k + 1:
			close(laterFailed)
			return 0, later
		}
		return square(n)
	})
	if !errors.Is(err, first) {
		t.Fatalf("err = %v, want the error of the earliest failing point", err)
	}
	if !reflect.DeepEqual(out, []int{0, 1, 4, 9, 16, 25, 36}) {
		t.Errorf("out = %v, want the %d results before the failure", out, k)
	}
}

// TestSessionRunsAFarm exercises the full harness on a synthetic
// constant-cost workload: report bookkeeping, collector plumbing and
// per-core utilization must all be populated.
func TestSessionRunsAFarm(t *testing.T) {
	var collected []int
	s, err := New(Config{
		Chip:         scc.DefaultConfig(),
		PollingScale: 1,
		Collect:      func(r rckskel.Result) { collected = append(collected, r.JobID) },
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	jobs := prepare(t, s, make([]sched.Pair, 12), []int{256})
	s.StartSlaves(func(job rckskel.Job) (any, costmodel.Counter, int) {
		return job.Payload, costmodel.Counter{ScoreEvals: 1e6}, 64
	})
	rep, err := s.Run(func(m *Master) {
		m.LoadResidues(1000)
		m.FarmWork(Work{Queues: [][]rckskel.Job{jobs}}, nil)
		m.Terminate()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Collected != len(jobs) || len(collected) != len(jobs) {
		t.Errorf("collected %d/%d results", rep.Collected, len(collected))
	}
	if rep.TotalSeconds <= rep.LoadSeconds || rep.LoadSeconds <= 0 {
		t.Errorf("implausible times: total %v load %v", rep.TotalSeconds, rep.LoadSeconds)
	}
	if rep.Workers != 3 || rep.EffectiveCores != 3 || rep.DroppedCores != 0 {
		t.Errorf("unexpected worker accounting: %+v", rep)
	}
	jobsTotal := 0
	for _, n := range rep.FarmStats.JobsPerSlave {
		jobsTotal += n
	}
	if jobsTotal != len(jobs) {
		t.Errorf("JobsPerSlave sums to %d, want %d", jobsTotal, len(jobs))
	}
	// The internal recorder must yield utilization for master + slaves.
	if len(rep.CoreUtilization) != 4 {
		t.Errorf("CoreUtilization has %d tracks, want 4: %v", len(rep.CoreUtilization), rep.CoreUtilization)
	}
	for track, u := range rep.CoreUtilization {
		if u <= 0 || u > 1 {
			t.Errorf("utilization[%s] = %v outside (0,1]", track, u)
		}
	}
}

// TestLinkNameAllocatesOnce: the worst link's name is fmt's "%v->%v" of
// its ends, "cN:"-prefixed on a board, built in one allocation.
func TestLinkNameAllocatesOnce(t *testing.T) {
	l := noc.LinkLoad{From: noc.Coord{X: 5, Y: 0}, To: noc.Coord{X: 4, Y: 13}}
	if got, want := linkName(l, false, 0), fmt.Sprintf("%v->%v", l.From, l.To); got != want {
		t.Errorf("linkName = %q, want %q", got, want)
	}
	if got, want := linkName(l, true, 12), fmt.Sprintf("c12:%v->%v", l.From, l.To); got != want {
		t.Errorf("board linkName = %q, want %q", got, want)
	}
	if n := testing.AllocsPerRun(10, func() { linkName(l, true, 63) }); n != 1 {
		t.Errorf("linkName allocates %v times, want 1", n)
	}
}
