package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"rckalign/internal/batcher"
	"rckalign/internal/core"
	"rckalign/internal/pairstore"
	"rckalign/internal/sched"
	"rckalign/internal/server"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

const (
	opScore = iota
	opOneVsAll
	opTopK
	opKinds
)

// topK is the k of every /topk request.
const topK = 5

// request is one generated HTTP request: /score takes both structure
// indices, /onevsall and /topk only a.
type request struct {
	kind int
	a, b int
}

// clientStats is what one pass's clients observed, merged over clients.
type clientStats struct {
	latencyMS  [opKinds][]float64
	respBytes  [opKinds]int
	queueWait  []float64 // µs, from the replies' max_timing
	assembly   []float64
	compute    []float64
	err4xx     int
	err5xx     int
	failed     int
	firstFail  error
	firstRowMS float64
}

func (c *clientStats) merge(o *clientStats) {
	for k := 0; k < opKinds; k++ {
		c.latencyMS[k] = append(c.latencyMS[k], o.latencyMS[k]...)
		if o.respBytes[k] > 0 {
			c.respBytes[k] = o.respBytes[k]
		}
	}
	c.queueWait = append(c.queueWait, o.queueWait...)
	c.assembly = append(c.assembly, o.assembly...)
	c.compute = append(c.compute, o.compute...)
	c.err4xx += o.err4xx
	c.err5xx += o.err5xx
	c.failed += o.failed
	if c.firstFail == nil {
		c.firstFail = o.firstFail
	}
}

func (c *clientStats) fail(err error) {
	c.failed++
	if c.firstFail == nil {
		c.firstFail = err
	}
}

// service is the comparison server both serve workloads drive: CK34
// preloaded, default kernel options, a 16-wide 1 ms batcher with W
// workers, reached over loopback HTTP by W clients that each keep one
// connection alive.
type service struct {
	cfg     runConfig
	ds      *synth.Dataset
	golden  map[sched.Pair]string
	srv     *server.Server
	ts      *httptest.Server
	clients []*http.Client

	// What the last pass left behind, and the client observations of
	// every pass pooled for the percentiles.
	stats   *clientStats
	pooled  clientStats
	store   pairstore.StatsSnapshot
	batcher batcher.Stats
}

func (s *service) start() (err error) {
	s.ds = s.cfg.size.ck()
	if s.golden, err = goldenLines(s.cfg, s.ds); err != nil {
		return err
	}
	s.srv = server.New(server.Config{
		Dataset: s.ds.Name,
		Options: tmalign.DefaultOptions(),
		Batch:   batcher.Config{BatchSize: 16, MaxWait: time.Millisecond, Workers: s.cfg.workers},
	})
	if err := s.srv.Preload(s.ds.Structures); err != nil {
		return err
	}
	s.ts = httptest.NewServer(s.srv.Handler())
	s.clients = make([]*http.Client, s.cfg.workers)
	for i := range s.clients {
		s.clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	return nil
}

func (s *service) stop() {
	if s.ts == nil {
		return
	}
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	s.ts.Close()
	s.srv.Close()
	s.ts = nil
}

// seedStore makes every pair resident through the store's own Get, with
// the committed results as values, so no kernel work happens.
func (s *service) seedStore(ref *core.PairResults) {
	keys := core.PairKeys(s.ds, tmalign.DefaultOptions())
	for k, key := range keys {
		r := ref.Results[k]
		s.srv.Store().Get(key, func() any { return r })
	}
}

func (s *service) url(r request) (method, url string) {
	id := func(i int) string { return s.ds.Structures[i].ID }
	switch r.kind {
	case opScore:
		return http.MethodGet, fmt.Sprintf("%s/score?a=%s&b=%s&format=text", s.ts.URL, id(r.a), id(r.b))
	case opOneVsAll:
		return http.MethodPost, fmt.Sprintf("%s/onevsall?target=%s", s.ts.URL, id(r.a))
	}
	return http.MethodGet, fmt.Sprintf("%s/topk?target=%s&k=%d", s.ts.URL, id(r.a), topK)
}

// do sends one request on the client's connection, reads the whole body,
// records the latency (send to last byte) and checks the reply against
// the golden lines. With a tracer it records the request, its HTTP round
// trip and, from the timing the reply carries, the batcher stages.
func (s *service) do(c *http.Client, r request, st *clientStats, tr *tracer, parent int, lane string) {
	method, url := s.url(r)
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		st.fail(err)
		return
	}
	sr := tr.begin("request", parent, lane)
	defer tr.end(sr)
	st0 := tr.begin("server.tcp", sr, lane)
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		tr.end(st0)
		st.fail(err)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	tr.end(st0)
	if err != nil {
		st.fail(err)
		return
	}
	st.latencyMS[r.kind] = append(st.latencyMS[r.kind], t1.Sub(t0).Seconds()*1e3)
	st.respBytes[r.kind] = len(body)
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode >= 500 {
			st.err5xx++
		} else {
			st.err4xx++
		}
		st.fail(fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, body))
		return
	}

	var timing server.TimingBreakdown
	switch r.kind {
	case opScore:
		p := sched.Pair{I: r.a, J: r.b}
		if p.I > p.J {
			p.I, p.J = p.J, p.I
		}
		if string(body) != s.golden[p] {
			st.fail(fmt.Errorf("%s: got %q, want %q", url, body, s.golden[p]))
		}
		return
	case opOneVsAll:
		var out server.OneVsAllResponse
		if err := json.Unmarshal(body, &out); err != nil {
			st.fail(fmt.Errorf("%s: %w", url, err))
			return
		}
		if len(out.Rows) != s.ds.Len()-1 {
			st.fail(fmt.Errorf("%s: %d rows, want %d", url, len(out.Rows), s.ds.Len()-1))
			return
		}
		for _, row := range out.Rows {
			got := server.ScoreLine(row.I, row.J, &tmalign.Result{TM1: row.TM1, TM2: row.TM2, RMSD: row.RMSD, AlignedLen: row.AlignedLen, SeqID: row.SeqID})
			if want := s.golden[sched.Pair{I: row.I, J: row.J}]; got != want {
				st.fail(fmt.Errorf("%s: row got %q, want %q", url, got, want))
				return
			}
		}
		timing = out.MaxTiming
	case opTopK:
		var out struct {
			Neighbors []server.Neighbor      `json:"neighbors"`
			MaxTiming server.TimingBreakdown `json:"max_timing"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			st.fail(fmt.Errorf("%s: %w", url, err))
			return
		}
		want := topK
		if n := s.ds.Len() - 1; n < want {
			want = n
		}
		if len(out.Neighbors) != want {
			st.fail(fmt.Errorf("%s: %d neighbors, want %d", url, len(out.Neighbors), want))
			return
		}
		timing = out.MaxTiming
	}
	st.queueWait = append(st.queueWait, timing.QueueWaitS*1e6)
	st.assembly = append(st.assembly, timing.AssemblyS*1e6)
	st.compute = append(st.compute, timing.ComputeS*1e6)
	if tr != nil {
		// The reply says how long each batcher stage of its slowest
		// pair took, not when; the stages end when the reply is written,
		// so they are laid back to back up to the last byte.
		end := tr.since(t1)
		stages := []struct {
			name string
			s    float64
		}{{"batcher.compute", timing.ComputeS}, {"batcher.assembly", timing.AssemblyS}, {"batcher.queue_wait", timing.QueueWaitS}}
		for _, sg := range stages {
			start := end - time.Duration(sg.s*float64(time.Second))
			if start < tr.since(t0) {
				start = tr.since(t0)
			}
			tr.add(sg.name, start, end, st0, lane)
			end = start
		}
	}
}

// runClients runs one closed-loop client per connection: each sends its
// next request only when the previous reply has been read. It leaves the
// merged observations and the server's counters in s.
func (s *service) runClients(tr *tracer, parent int, next func(client int) (request, bool)) {
	per := make([]clientStats, len(s.clients))
	var wg sync.WaitGroup
	for i, c := range s.clients {
		wg.Add(1)
		go func(i int, c *http.Client) {
			defer wg.Done()
			lane := fmt.Sprintf("client-%d", i)
			for n := 0; ; n++ {
				r, ok := next(i)
				if !ok {
					return
				}
				s.do(c, r, &per[i], tr, parent, lane)
				if lat := per[i].latencyMS[r.kind]; n == 0 && len(lat) > 0 {
					per[i].firstRowMS = lat[0]
				}
			}
		}(i, c)
	}
	wg.Wait()
	s.stats = &clientStats{firstRowMS: per[0].firstRowMS}
	for i := range per {
		s.stats.merge(&per[i])
	}
	s.store, s.batcher = s.srv.Store().StatsSnapshot(), s.srv.BatcherStats()
}

// checkPass pools the pass's observations and returns its failed
// requests; the store must have computed each pair exactly once, in
// set-up (warm) or in the pass (cold).
func (s *service) checkPass() (int, error) {
	s.pooled.merge(s.stats)
	err := s.stats.firstFail
	if pairs := int64(s.ds.Pairs()); err == nil && s.store.Misses != pairs {
		err = fmt.Errorf("pair store misses: got %d, want %d (every pair is evaluated exactly once, never by a warm request)", s.store.Misses, pairs)
	}
	return s.stats.failed, err
}

// batcherLayer fills the batcher metrics from the replies' timing and
// the server's batcher counters.
func batcherLayer(m map[string]float64, st *clientStats, bs batcher.Stats) {
	m["batcher.queue_wait_us_p50"] = median(st.queueWait)
	m["batcher.queue_wait_us_p99"] = quantile(st.queueWait, 0.99)
	m["batcher.assembly_us_p50"] = median(st.assembly)
	m["batcher.compute_us_p50"] = median(st.compute)
	if bs.Batches > 0 {
		m["batcher.mean_batch"] = float64(bs.Completed) / float64(bs.Batches)
	}
	m["batcher.size_flushes"] = float64(bs.SizeFlushes)
	m["batcher.timer_flushes"] = float64(bs.TimerFlushes)
	m["batcher.peak_pending"] = float64(bs.PeakPending)
}

// serveWarm is serve_ck34_warm: every pair is resident, so a request
// costs HTTP, JSON, the batcher and the store's hit path and no kernel
// work. W closed-loop clients send a seeded 90/7/3 mix of /score,
// /onevsall and /topk. Operation: one request.
type serveWarm struct {
	service
	ref  *core.PairResults
	plan [][]request // per client
}

func (w *serveWarm) Setup() (err error) {
	if err := w.start(); err != nil {
		return err
	}
	if w.ref, err = referenceResults(w.cfg, w.ds); err != nil {
		return err
	}
	w.seedStore(w.ref)
	// The mix is exact — 90 % /score, 7 % /onevsall, 3 % /topk of the
	// requests — so every seed asks for the same work; the seed picks
	// the order and the structures.
	rng := rand.New(rand.NewSource(w.cfg.seed))
	n, total := w.ds.Len(), w.cfg.size.requests
	reqs := make([]request, total)
	for i := range reqs {
		r := request{kind: opScore, a: rng.Intn(n)}
		switch {
		case i < total*3/100:
			r.kind = opTopK
		case i < total*10/100:
			r.kind = opOneVsAll
		default:
			r.b = (r.a + 1 + rng.Intn(n-1)) % n
		}
		reqs[i] = r
	}
	rng.Shuffle(total, func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	w.plan = make([][]request, len(w.clients))
	for i, r := range reqs {
		w.plan[i%len(w.plan)] = append(w.plan[i%len(w.plan)], r)
	}
	return nil
}

func (w *serveWarm) Pass(tr *tracer) (int, error) {
	root := tr.begin("serve_ck34_warm", -1, "main")
	defer tr.end(root)
	heads := make([]int, len(w.plan))
	w.runClients(tr, root, func(c int) (request, bool) {
		if heads[c] >= len(w.plan[c]) {
			return request{}, false
		}
		heads[c]++
		return w.plan[c][heads[c]-1], true
	})
	return w.cfg.size.requests, nil
}

func (w *serveWarm) Check() (int, error) { return w.checkPass() }

func (w *serveWarm) Teardown() { w.stop() }

func (w *serveWarm) Layer(m map[string]float64, tr *tracer, passes int) error {
	var all []float64
	for k := 0; k < opKinds; k++ {
		all = append(all, w.pooled.latencyMS[k]...)
	}
	m["server.latency_p50_ms"] = median(all)
	m["server.latency_p99_ms"] = quantile(all, 0.99)
	m["server.latency_samples"] = float64(len(all))
	m["server.resp_bytes_score"] = float64(w.pooled.respBytes[opScore])
	m["server.resp_bytes_onevsall"] = float64(w.pooled.respBytes[opOneVsAll])
	m["server.errors_4xx"] = float64(w.pooled.err4xx)
	m["server.errors_5xx"] = float64(w.pooled.err5xx)
	batcherLayer(m, &w.pooled, w.batcher)
	storeStatsLayer(m, w.store)

	// Direct-call probes on a fresh warm server: the handlers without
	// the network, the batcher without the server, the store without
	// the batcher.
	if err := w.Setup(); err != nil {
		return err
	}
	defer w.Teardown()
	handler := func(r request) float64 {
		method, url := w.url(r)
		lat := make([]float64, 0, w.cfg.size.probeIters/4+1)
		for i := 0; i < cap(lat); i++ {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(method, url, nil)
			t0 := time.Now()
			w.srv.Handler().ServeHTTP(rec, req)
			lat = append(lat, time.Since(t0).Seconds()*1e6)
		}
		return median(lat)
	}
	m["server.handler_score_us_p50"] = handler(request{kind: opScore, a: 0, b: 1})
	m["server.handler_onevsall_us_p50"] = handler(request{kind: opOneVsAll, a: 0})
	m["server.handler_topk_us_p50"] = handler(request{kind: opTopK, a: 0})
	m["server.transport_us_p50"] = median(w.pooled.latencyMS[opScore])*1e3 - m["server.handler_score_us_p50"]
	batcherProbe(m, w.cfg.workers, w.cfg.size.probeIters)
	storeHitProbe(m, w.cfg.size.probeIters)
	return datasetProbes(m, w.ds, w.cfg.size.ck)
}

// serveCold is serve_ck34_cold: the same service with an empty store. W
// closed-loop clients drain a shuffled queue of one /onevsall per
// structure, so every pair misses exactly once and overlapping rows meet
// in the single-flight store. Operation: one distinct pair evaluated.
type serveCold struct {
	service
	queue []request

	first   []float64         // first-request latency of every pass
	results *core.PairResults // read back from the server's store
}

func (w *serveCold) Setup() error {
	if err := w.start(); err != nil {
		return err
	}
	w.queue = w.queue[:0]
	for _, i := range rand.New(rand.NewSource(w.cfg.seed)).Perm(w.ds.Len()) {
		w.queue = append(w.queue, request{kind: opOneVsAll, a: i})
	}
	return nil
}

func (w *serveCold) Pass(tr *tracer) (int, error) {
	root := tr.begin("serve_ck34_cold", -1, "main")
	defer tr.end(root)
	var head atomic.Int64
	w.runClients(tr, root, func(int) (request, bool) {
		i := int(head.Add(1)) - 1
		if i >= len(w.queue) {
			return request{}, false
		}
		return w.queue[i], true
	})
	return w.ds.Pairs(), nil
}

func (w *serveCold) Check() (int, error) {
	w.first = append(w.first, w.stats.firstRowMS)
	failed, err := w.checkPass()
	if err == nil {
		// Every pair is resident, so this only reads the store back.
		w.results = core.ComputeAllPairsShared(w.ds, tmalign.DefaultOptions(), w.srv.Store())
	}
	return failed, err
}

func (w *serveCold) Teardown() { w.stop() }

func (w *serveCold) Layer(m map[string]float64, tr *tracer, passes int) error {
	m["server.first_row_ms"] = median(w.first)
	m["server.resp_bytes_onevsall"] = float64(w.pooled.respBytes[opOneVsAll])
	m["server.errors_4xx"] = float64(w.pooled.err4xx)
	m["server.errors_5xx"] = float64(w.pooled.err5xx)
	batcherLayer(m, &w.pooled, w.batcher)
	storeStatsLayer(m, w.store)

	opsLayer(m, w.results.TotalOps())
	kernelProbes(m, w.ds, samplePairs(w.results.Pairs, w.cfg.size.sampleCK, w.cfg.seed))
	storeHitProbe(m, w.cfg.size.probeIters)
	return datasetProbes(m, w.ds, w.cfg.size.ck)
}
