// Package server turns the batch all-to-all comparison engine into a
// long-lived protein-structure-comparison service (PSC-as-a-service,
// after the Protein Models Comparator): an HTTP/JSON API over a growing
// structure database, serving pairwise scores, one-vs-all sweeps and
// top-K neighbor queries to many concurrent clients.
//
// Probe, then coalesce: every query expands into per-pair work items,
// and residency is the first thing an item meets. A pair already
// resident in the single-flight memoized internal/pairstore (keyed by
// (dataset, kernel, pair)) is answered inline — a lookup, no queue, no
// batch timer. Only the misses (absent or still in flight) flow through
// one internal/batcher instance (bounded queue, batch-size and max-wait
// flush triggers), and every evaluation there runs through the same
// store. Concurrent bursts of one-vs-all queries against the same
// target therefore compute each pair exactly once, and — because pairs
// are always compared in canonical index order (lower index first) —
// every served score is bit-identical to what the batch CLI
// (cmd/rckalign -scores-out) produces for the same structures in the
// same order under the same kernel options. A reply answered entirely
// inline reports memo hits, batch_size 0, no trigger, and the handler
// time as its only timing. See DESIGN.md §14.
//
// Endpoints:
//
//	POST /structures?id=NAME   upload one PDB file (body), parse CA trace
//	GET  /structures           list stored structures
//	GET  /score?a=ID&b=ID      one pairwise TM-align comparison
//	POST /onevsall?target=ID   target against every stored structure
//	GET  /topk?target=ID&k=N   the N nearest neighbors by TM-score
//	GET  /healthz              liveness
//	GET  /statsz               pairstore hit rate, batch-size histogram,
//	                           queue depth, per-endpoint p50/p95/p99
//
// /score and /onevsall accept format=text to emit the exact
// "-scores-out" line format (full float64 precision) for byte-for-byte
// comparison against batch dumps.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rckalign/internal/batcher"
	"rckalign/internal/metrics"
	"rckalign/internal/pairstore"
	"rckalign/internal/pdb"
	"rckalign/internal/prune"
	"rckalign/internal/tmalign"
)

// maxUploadBytes bounds a structure upload body (a CA-only PDB chain is
// well under 100 KB; 16 MB admits full multi-model files).
const maxUploadBytes = 16 << 20

// Config tunes a Server.
type Config struct {
	// Dataset names the pairstore key namespace (default "serve"). Use
	// the batch dataset's name when preloading it so its keys match a
	// batch run's (core.PairKeys).
	Dataset string
	// Options is the TM-align kernel configuration; its Key() is the
	// kernel component of every pairstore key.
	Options tmalign.Options
	// Batch tunes the request coalescer (see batcher.Config defaults).
	// Config.Batch.OnFlush is reserved for the server's own batch-size
	// histogram and must be nil.
	Batch batcher.Config
	// AccessLog, when non-nil, receives one JSON line per completed
	// request: request ID, endpoint, status, latency, the coalescer
	// timing breakdown, batch size/trigger and memo hit/miss counts.
	// Writes are serialized by the server.
	AccessLog io.Writer
	// PruneTM, when positive, pre-filters /onevsall and /topk sweeps
	// with the internal/prune similarity bound: pairs whose conservative
	// TM upper bound falls below the threshold are never submitted to
	// the coalescer and are absent from the response rows (their pruned
	// count is reported instead). Explicit /score requests are never
	// pruned — a directly asked-for pair always gets the exact kernel
	// answer.
	PruneTM float64
}

// pairJob is one canonical pair evaluation: a is the structure with the
// lower database index, so Compare's argument order — and therefore the
// exact result bits — match a batch run over the same structures. req
// is the ID of the HTTP request that submitted the pair; it rides
// through the batcher so a flushed batch knows which requests it
// coalesced (it never enters the pairstore key — memoization stays
// request-independent).
type pairJob struct {
	i, j int
	a, b *tmalign.Lazy
	req  string
}

// pairOut is one evaluated pair plus its memoization outcome, the unit
// the batcher returns so responses and the access log can report memo
// hit/miss per request. Exactly one of res and err is set: a kernel
// rejection (degenerate input) is a value too, memoized like any
// result so a bad pair is diagnosed once, not recomputed per request.
type pairOut struct {
	res *tmalign.Result
	err error
	hit bool
}

// Server is the comparison service. Create with New, expose with
// Handler, stop with Close.
type Server struct {
	dataset string
	opt     tmalign.Options
	kernel  string
	db      *DB
	store   *pairstore.Store // every evaluation flows through it: each pair computed once
	bat     *batcher.Batcher[pairJob, pairOut]
	mux     *http.ServeMux
	start   time.Time
	seq     atomic.Int64 // request-ID sequence for requests without one
	closed  atomic.Bool  // set by Close: queries get 503, resident or not

	// The metrics registry is not internally synchronized (it was built
	// for the single-goroutine simulator), so every access — through the
	// registry or through a handle it returned — goes under metricsMu.
	// endpoints holds the per-endpoint handles, resolved once in New.
	metricsMu sync.Mutex
	reg       *metrics.Registry
	endpoints map[string]endpointMetrics

	// accessMu serializes access-log lines (accessLog is nil when
	// logging is off).
	accessMu  sync.Mutex
	accessLog io.Writer

	// pruneTM is Config.PruneTM (pruning is on when it is positive).
	// Each sweep bounds its pairs with a prune.Filter of its own over the
	// entries' prepared features.
	pruneTM float64
}

// endpoints instrumented with latency histograms, in /statsz order.
var observedEndpoints = []string{"healthz", "list", "onevsall", "score", "statsz", "structures", "topk"}

// endpointMetrics is one endpoint's latency histogram and request
// counter: observe updates them per request, /statsz reads them.
type endpointMetrics struct {
	latency  *metrics.Histogram
	requests *metrics.Counter
}

// New builds and starts a server (its batcher goroutines run until
// Close).
func New(cfg Config) *Server {
	if cfg.Dataset == "" {
		cfg.Dataset = "serve"
	}
	s := &Server{
		dataset:   cfg.Dataset,
		opt:       cfg.Options,
		kernel:    cfg.Options.Key(),
		db:        NewDB(),
		store:     pairstore.New(0),
		reg:       metrics.New(),
		start:     time.Now(),
		accessLog: cfg.AccessLog,
		endpoints: make(map[string]endpointMetrics, len(observedEndpoints)),
		pruneTM:   cfg.PruneTM,
	}
	for _, ep := range observedEndpoints {
		s.endpoints[ep] = endpointMetrics{
			latency:  s.reg.Histogram("server.latency_seconds", metrics.TimeBuckets, "endpoint", ep),
			requests: s.reg.Counter("server.requests", "endpoint", ep),
		}
	}
	bcfg := cfg.Batch
	bcfg.OnFlush = func(size int, trigger batcher.Trigger) {
		s.metricsMu.Lock()
		s.reg.Histogram("server.batch.size", metrics.CountBuckets).Observe(float64(size))
		s.reg.Counter("server.batch.flushes", "trigger", trigger.String()).Inc()
		s.metricsMu.Unlock()
	}
	// The run function never fails as a batch: kernel rejections are
	// carried per pair in pairOut.err (served as 422), and a panic that
	// escapes TryCompare is a genuine kernel bug that should crash.
	bat, err := batcher.New(bcfg, s.runBatch)
	if err != nil {
		panic(err) // unreachable: runBatch is non-nil
	}
	s.bat = bat

	mux := http.NewServeMux()
	mux.HandleFunc("POST /structures", s.observe("structures", s.handleUpload))
	mux.HandleFunc("GET /structures", s.observe("list", s.handleList))
	mux.HandleFunc("GET /score", s.observe("score", s.handleScore))
	mux.HandleFunc("POST /onevsall", s.observe("onevsall", s.handleOneVsAll))
	mux.HandleFunc("GET /topk", s.observe("topk", s.handleTopK))
	mux.HandleFunc("GET /healthz", s.observe("healthz", s.handleHealthz))
	mux.HandleFunc("GET /statsz", s.observe("statsz", s.handleStatsz))
	s.mux = mux
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// DB exposes the structure database (tests and preloading).
func (s *Server) DB() *DB { return s.db }

// Store exposes the pair store.
func (s *Server) Store() *pairstore.Store { return s.store }

// Batcher exposes the request coalescer's statistics.
func (s *Server) BatcherStats() batcher.Stats { return s.bat.Stats() }

// Close drains the coalescer: queued and assembling batches execute,
// their responses are delivered, then Close returns. In-flight HTTP
// handlers should be drained first (http.Server.Shutdown), and new
// queries after Close receive 503 — including those the store could
// have answered inline.
func (s *Server) Close() {
	s.closed.Store(true)
	s.bat.Close()
}

// Preload parses nothing — it adds already-parsed structures in order,
// for wiring a built-in dataset at startup.
func (s *Server) Preload(structs []*pdb.Structure) error {
	for _, st := range structs {
		if _, err := s.db.Add(st); err != nil {
			return err
		}
	}
	return nil
}

// runBatch evaluates one flushed batch. Each pair goes through the
// memoized store (single-flight, exactly-once). Per pair it reports the
// memo outcome, and per batch it records how many distinct requests were
// coalesced into it (the request IDs propagated through the batcher ride
// on each job).
func (s *Server) runBatch(jobs []pairJob) ([]pairOut, error) {
	out := make([]pairOut, len(jobs))
	reqs := map[string]struct{}{}
	for k, j := range jobs {
		v, hit := s.store.GetHit(s.keyFor(j), func() any {
			r, err := tmalign.TryCompare(j.a.Get(), j.b.Get(), s.opt)
			if err != nil {
				return err
			}
			return r
		})
		out[k] = outOf(v, hit)
		reqs[j.req] = struct{}{}
	}
	s.metricsMu.Lock()
	s.reg.Histogram("server.batch.requests", metrics.CountBuckets).Observe(float64(len(reqs)))
	s.metricsMu.Unlock()
	return out, nil
}

// outOf types a stored value: the store holds a *tmalign.Result or the
// kernel's rejection of the pair.
func outOf(v any, hit bool) pairOut {
	if err, ok := v.(error); ok {
		return pairOut{err: err, hit: hit}
	}
	return pairOut{res: v.(*tmalign.Result), hit: hit}
}

// evalPairs evaluates a request's canonical pairs, residency first.
// Every job whose pair is resident in the store is answered inline — a
// lookup, never a trip through the coalescer — and only the misses
// (absent or still in flight, which single-flight still owns) go
// through one SubmitAll, so batch assembly is paid in proportion to a
// request's misses, not its width. Results are index-aligned with jobs.
// An inline result is a memo hit with BatchSize 0, no batch worker (-1),
// zero timing, and the request's arrival as its enqueue time. The first
// pair-level error fails the request; on success the results are folded
// into the request's trace record (recordItems).
func (s *Server) evalPairs(info *reqInfo, jobs []pairJob) ([]batcher.Result[pairOut], error) {
	if s.closed.Load() {
		return nil, batcher.ErrClosed
	}
	results := make([]batcher.Result[pairOut], len(jobs))
	var misses []pairJob
	var missAt []int // misses[n] is jobs[missAt[n]]
	for k, j := range jobs {
		v, ok := s.store.Probe(s.keyFor(j))
		if !ok {
			if misses == nil {
				misses, missAt = make([]pairJob, 0, len(jobs)-k), make([]int, 0, len(jobs)-k)
			}
			misses, missAt = append(misses, j), append(missAt, k)
			continue
		}
		results[k] = batcher.Result[pairOut]{Value: outOf(v, true), Worker: -1, EnqueuedAt: info.t0}
	}
	if len(misses) > 0 {
		computed, err := s.bat.SubmitAll(misses)
		if err != nil {
			return nil, err
		}
		for n, k := range missAt {
			results[k] = computed[n]
		}
	}
	for _, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		if r.Value.err != nil {
			return nil, r.Value.err
		}
	}
	recordItems(info, results)
	return results, nil
}

func (s *Server) keyFor(j pairJob) pairstore.Key {
	return pairstore.Key{Dataset: s.dataset, Kernel: s.kernel, A: j.a.ID, B: j.b.ID}
}

// canonicalJob orients a pair by database index: lower index first. req
// is the submitting request's ID.
func canonicalJob(req string, i int, a *tmalign.Lazy, j int, b *tmalign.Lazy) pairJob {
	if i < j {
		return pairJob{i: i, j: j, a: a, b: b, req: req}
	}
	return pairJob{i: j, j: i, a: b, b: a, req: req}
}

// ScoreLine formats one pair result exactly as cmd/rckalign -scores-out
// does: indices then TM1 TM2 RMSD AlignedLen SeqID at full float64
// round-trip precision, newline-terminated.
func ScoreLine(i, j int, r *tmalign.Result) string {
	return fmt.Sprintf("%d %d %.17g %.17g %.17g %d %.17g\n",
		i, j, r.TM1, r.TM2, r.RMSD, r.AlignedLen, r.SeqID)
}

// reqInfo is the per-request trace record: assigned in observe, carried
// through the handler via the request context, filled in as the request
// flows through the coalescer, and finally emitted as one access-log
// line. Handlers mutate it from the single handler goroutine only.
type reqInfo struct {
	id       string
	endpoint string
	t0       time.Time
	status   int
	timing   TimingBreakdown
	batch    int
	trigger  string
	memoHit  int
	memoMiss int
	errMsg   string
}

// replyTiming is the timing a reply carries: the coalescer breakdown
// when the request rode it, otherwise — errors, non-query endpoints,
// queries answered inline from the store — the handler time so far,
// which is then the whole story.
func (info *reqInfo) replyTiming() TimingBreakdown {
	if info.timing.TotalS == 0 {
		info.timing.TotalS = time.Since(info.t0).Seconds()
	}
	return info.timing
}

type reqInfoKey struct{}

// infoFrom returns the request's trace record; handlers are always
// invoked under observe, so a missing record is a throwaway (it keeps
// direct handler invocations in tests from panicking).
func infoFrom(r *http.Request) *reqInfo {
	if info, ok := r.Context().Value(reqInfoKey{}).(*reqInfo); ok {
		return info
	}
	return &reqInfo{t0: time.Now()}
}

// statusWriter captures the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	info *reqInfo
}

func (w *statusWriter) WriteHeader(code int) {
	w.info.status = code
	w.ResponseWriter.WriteHeader(code)
}

// AccessEntry is one access-log line: the end-to-end record of a
// request, written as JSON. TOffsetS is the arrival time as an offset
// from server start, on the same clock as ScoreResponse.EnqueueOffsetS,
// so log lines and trace spans line up.
type AccessEntry struct {
	TOffsetS  float64         `json:"t_offset_s"`
	ReqID     string          `json:"req_id"`
	Endpoint  string          `json:"endpoint"`
	Status    int             `json:"status"`
	LatencyS  float64         `json:"latency_s"`
	Timing    TimingBreakdown `json:"timing"`
	BatchSize int             `json:"batch_size"`
	Trigger   string          `json:"trigger,omitempty"`
	MemoHits  int             `json:"memo_hits"`
	MemoMiss  int             `json:"memo_misses"`
	Error     string          `json:"error,omitempty"`
}

// observe wraps every handler with the request-tracing layer: it
// assigns (or adopts, from an X-Request-ID header) the request ID,
// echoes it as a response header, threads a trace record through the
// handler, records the per-endpoint latency histogram, and emits one
// access-log line when configured.
func (s *Server) observe(endpoint string, fn http.HandlerFunc) http.HandlerFunc {
	m := s.endpoints[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		info := &reqInfo{
			id:       r.Header.Get("X-Request-ID"),
			endpoint: endpoint,
			t0:       time.Now(),
			status:   http.StatusOK,
		}
		if info.id == "" {
			info.id = fmt.Sprintf("r%08d", s.seq.Add(1))
		}
		w.Header().Set("X-Request-ID", info.id)
		sw := &statusWriter{ResponseWriter: w, info: info}
		fn(sw, r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, info)))
		sec := time.Since(info.t0).Seconds()
		if info.timing.TotalS == 0 {
			info.timing.TotalS = sec // no reply stamped it (see replyTiming)
		}
		s.metricsMu.Lock()
		m.latency.Observe(sec)
		m.requests.Inc()
		s.metricsMu.Unlock()
		if s.accessLog != nil {
			line, err := json.Marshal(AccessEntry{
				TOffsetS: info.t0.Sub(s.start).Seconds(), ReqID: info.id,
				Endpoint: endpoint, Status: info.status, LatencyS: sec,
				Timing: info.timing, BatchSize: info.batch, Trigger: info.trigger,
				MemoHits: info.memoHit, MemoMiss: info.memoMiss, Error: info.errMsg,
			})
			if err == nil {
				s.accessMu.Lock()
				s.accessLog.Write(append(line, '\n'))
				s.accessMu.Unlock()
			}
		}
	}
}

// ErrorResponse is the JSON body of every error reply. Timing is
// populated on all paths — for requests rejected before reaching the
// coalescer (404/409/400) it carries the handler time in TotalS — so
// clients can account every request's latency the same way.
type ErrorResponse struct {
	Error  string          `json:"error"`
	ReqID  string          `json:"req_id"`
	Timing TimingBreakdown `json:"timing"`
}

// fail writes a JSON error carrying the request ID and timing, and
// counts it. Error taxonomy: typed lookup errors map to 404/409,
// batcher shutdown to 503, everything explicitly passed stays at the
// given code.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, code int, err error) {
	s.metricsMu.Lock()
	s.reg.Counter("server.errors", "code", strconv.Itoa(code)).Inc()
	s.metricsMu.Unlock()
	info := infoFrom(r)
	info.errMsg = err.Error()
	writeJSON(w, code, ErrorResponse{Error: err.Error(), ReqID: info.id, Timing: info.replyTiming()})
}

// failErr maps an error to its HTTP status by type.
func (s *Server) failErr(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, ErrUnknownStructure):
		s.fail(w, r, http.StatusNotFound, err)
	case errors.Is(err, ErrDuplicateStructure):
		s.fail(w, r, http.StatusConflict, err)
	case errors.Is(err, batcher.ErrClosed):
		s.fail(w, r, http.StatusServiceUnavailable, errors.New("server is draining"))
	case tmalign.IsKernelError(err):
		// The request was well-formed HTTP but the pair cannot be
		// aligned (degenerate structure, kernel precondition): the
		// input, not the server, is at fault.
		s.fail(w, r, http.StatusUnprocessableEntity, err)
	default:
		s.fail(w, r, http.StatusInternalServerError, err)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// UploadResponse acknowledges a stored structure.
type UploadResponse struct {
	ID       string `json:"id"`
	Index    int    `json:"index"`
	Residues int    `json:"residues"`
	ReqID    string `json:"req_id"`
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	body, err := io.ReadAll(io.LimitReader(r.Body, maxUploadBytes+1))
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	if len(body) > maxUploadBytes {
		s.fail(w, r, http.StatusRequestEntityTooLarge,
			fmt.Errorf("upload exceeds %d bytes", maxUploadBytes))
		return
	}
	st, err := pdb.Parse(bytes.NewReader(body), id)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	if err := tmalign.ValidateStructure(st); err != nil {
		// Reject degenerate structures at the door: stored once, they
		// would poison every query touching them.
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	idx, err := s.db.Add(st)
	if err != nil {
		s.failErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusCreated, UploadResponse{ID: st.ID, Index: idx, Residues: st.Len(), ReqID: infoFrom(r).id})
}

// StructureInfo describes one stored structure in listings.
type StructureInfo struct {
	ID       string `json:"id"`
	Index    int    `json:"index"`
	Residues int    `json:"residues"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	structs := s.db.Snapshot()
	infos := make([]StructureInfo, len(structs))
	for i, e := range structs {
		infos[i] = StructureInfo{ID: e.ID, Index: i, Residues: e.Len()}
	}
	writeJSON(w, http.StatusOK, struct {
		Count      int             `json:"count"`
		Structures []StructureInfo `json:"structures"`
		ReqID      string          `json:"req_id"`
	}{len(infos), infos, infoFrom(r).id})
}

// ScoreRow is one pair's scores in canonical orientation: I < J are
// database indices, TM1 is normalised by structure I's length, TM2 by
// J's.
type ScoreRow struct {
	I          int     `json:"i"`
	J          int     `json:"j"`
	A          string  `json:"a"`
	B          string  `json:"b"`
	TM1        float64 `json:"tm1"`
	TM2        float64 `json:"tm2"`
	RMSD       float64 `json:"rmsd"`
	AlignedLen int     `json:"aligned_len"`
	SeqID      float64 `json:"seq_id"`
}

func rowOf(j pairJob, r *tmalign.Result) ScoreRow {
	return ScoreRow{
		I: j.i, J: j.j, A: j.a.ID, B: j.b.ID,
		TM1: r.TM1, TM2: r.TM2, RMSD: r.RMSD,
		AlignedLen: r.AlignedLen, SeqID: r.SeqID,
	}
}

// TimingBreakdown is a batcher timing in seconds, as served to clients.
type TimingBreakdown struct {
	QueueWaitS float64 `json:"queue_wait_s"`
	AssemblyS  float64 `json:"assembly_s"`
	ComputeS   float64 `json:"compute_s"`
	TotalS     float64 `json:"total_s"`
}

func timingOf(t batcher.Timing) TimingBreakdown {
	return TimingBreakdown{
		QueueWaitS: t.QueueWait.Seconds(),
		AssemblyS:  t.Assembly.Seconds(),
		ComputeS:   t.Compute.Seconds(),
		TotalS:     t.Total.Seconds(),
	}
}

// ScoreResponse is the /score reply. ReqID, Worker, MemoHit,
// QueueDepth and EnqueueOffsetS are the request-tracing fields: which
// request this was, which batch worker computed it, whether the pair
// came from the memo store, the coalescer backlog it saw on arrival,
// and when (as an offset from server start) it entered the queue — the
// coordinates a load generator needs to rebuild server-side trace
// spans. A resident pair is answered inline and never meets the
// coalescer: MemoHit with BatchSize 0, an empty Trigger, Worker -1,
// QueueDepth 0, the request's arrival as EnqueueOffsetS, and a Timing
// that is only the handler time in TotalS.
type ScoreResponse struct {
	ScoreRow
	ReqID          string          `json:"req_id"`
	BatchSize      int             `json:"batch_size"`
	Trigger        string          `json:"trigger"`
	Timing         TimingBreakdown `json:"timing"`
	Worker         int             `json:"worker"`
	MemoHit        bool            `json:"memo_hit"`
	QueueDepth     int64           `json:"queue_depth"`
	EnqueueOffsetS float64         `json:"enqueue_offset_s"`
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	info := infoFrom(r)
	q := r.URL.Query()
	aID, bID := q.Get("a"), q.Get("b")
	if aID == "" || bID == "" {
		s.fail(w, r, http.StatusBadRequest, errors.New("need a= and b= structure ids"))
		return
	}
	ai, a, err := s.db.Lookup(aID)
	if err != nil {
		s.failErr(w, r, err)
		return
	}
	bi, b, err := s.db.Lookup(bID)
	if err != nil {
		s.failErr(w, r, err)
		return
	}
	if ai == bi {
		s.fail(w, r, http.StatusBadRequest, fmt.Errorf("a and b are both structure %q", aID))
		return
	}
	job := canonicalJob(info.id, ai, a, bi, b)
	results, err := s.evalPairs(info, []pairJob{job})
	if err != nil {
		s.failErr(w, r, err)
		return
	}
	res := results[0]
	if q.Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, ScoreLine(job.i, job.j, res.Value.res))
		return
	}
	writeJSON(w, http.StatusOK, ScoreResponse{
		ScoreRow:       rowOf(job, res.Value.res),
		ReqID:          info.id,
		BatchSize:      res.BatchSize,
		Trigger:        info.trigger,
		Timing:         info.replyTiming(),
		Worker:         res.Worker,
		MemoHit:        res.Value.hit,
		QueueDepth:     res.QueueDepth,
		EnqueueOffsetS: res.EnqueuedAt.Sub(s.start).Seconds(),
	})
}

// oneVsAll resolves the target, expands it against every other stored
// structure (snapshot at request time), applies the optional prune
// pre-filter, and evaluates the surviving pairs (evalPairs: resident
// ones inline, the rest through the coalescer) under the request's ID.
// Rows come back sorted by canonical pair; the int alongside them
// counts pairs the pre-filter removed.
func (s *Server) oneVsAll(info *reqInfo, targetID string) (int, []pairJob, []batcher.Result[pairOut], int, error) {
	ti, _, err := s.db.Lookup(targetID)
	if err != nil {
		return 0, nil, nil, 0, err
	}
	structs := s.db.Snapshot()
	jobs := make([]pairJob, 0, len(structs)-1)
	for o, st := range structs {
		if o == ti {
			continue
		}
		jobs = append(jobs, canonicalJob(info.id, ti, structs[ti], o, st))
	}
	pruned := 0
	if s.pruneTM > 0 {
		f := prune.New(s.pruneTM)
		kept := jobs[:0]
		for _, j := range jobs {
			if f.Skip(&j.a.Get().Features, &j.b.Get().Features) {
				pruned++
				continue
			}
			kept = append(kept, j)
		}
		jobs = kept
		if pruned > 0 {
			s.metricsMu.Lock()
			s.reg.Counter("server.pruned_pairs").Add(float64(pruned))
			s.metricsMu.Unlock()
		}
	}
	results, err := s.evalPairs(info, jobs)
	if err != nil {
		return 0, nil, nil, pruned, err
	}
	return ti, jobs, results, pruned, nil
}

// recordItems folds a request's pair results into the trace record:
// memo hit/miss counts, the slowest item's breakdown (the request's
// critical path through the coalescer), and the largest batch any item
// rode in. Inline results contribute a hit and nothing else, so a fully
// resident request records batch 0, no trigger and zero timing.
func recordItems(info *reqInfo, results []batcher.Result[pairOut]) {
	var maxT batcher.Timing
	for _, res := range results {
		if res.Value.hit {
			info.memoHit++
		} else {
			info.memoMiss++
		}
		if res.BatchSize > info.batch { // never an inline result: their zero Trigger would read "size"
			info.batch, info.trigger = res.BatchSize, res.Trigger.String()
		}
		if res.Timing.Total > maxT.Total {
			maxT = res.Timing
		}
	}
	info.timing = timingOf(maxT)
}

// OneVsAllResponse is the /onevsall reply.
type OneVsAllResponse struct {
	Target string     `json:"target"`
	Index  int        `json:"index"`
	Count  int        `json:"count"`
	ReqID  string     `json:"req_id"`
	Rows   []ScoreRow `json:"rows"`
	// MaxTiming is the slowest item's breakdown — the request's critical
	// path through the coalescer. When every pair was resident nothing
	// rode the coalescer and it is the handler time in TotalS alone.
	MaxTiming TimingBreakdown `json:"max_timing"`
	// MemoHits/MemoMisses count this request's pairs by memo outcome.
	MemoHits   int `json:"memo_hits"`
	MemoMisses int `json:"memo_misses"`
	// Pruned counts pairs the similarity pre-filter removed before
	// compute (0 unless the server runs with Config.PruneTM > 0).
	Pruned int `json:"pruned"`
	// Workers lists the distinct batch workers that computed this
	// request's pairs, ascending; empty when every pair was resident.
	Workers []int `json:"workers"`
}

// distinctWorkers returns the sorted distinct worker indices across a
// request's batcher results.
func distinctWorkers(results []batcher.Result[pairOut]) []int {
	seen := map[int]struct{}{}
	out := []int{}
	for _, res := range results {
		if res.Worker < 0 {
			continue // answered inline
		}
		if _, ok := seen[res.Worker]; !ok {
			seen[res.Worker] = struct{}{}
			out = append(out, res.Worker)
		}
	}
	sort.Ints(out)
	return out
}

func (s *Server) handleOneVsAll(w http.ResponseWriter, r *http.Request) {
	info := infoFrom(r)
	targetID := r.URL.Query().Get("target")
	if targetID == "" {
		s.fail(w, r, http.StatusBadRequest, errors.New("need target= structure id"))
		return
	}
	ti, jobs, results, pruned, err := s.oneVsAll(info, targetID)
	if err != nil {
		s.failErr(w, r, err)
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for k, job := range jobs {
			io.WriteString(w, ScoreLine(job.i, job.j, results[k].Value.res))
		}
		return
	}
	resp := OneVsAllResponse{Target: targetID, Index: ti, Count: len(jobs), ReqID: info.id, Rows: make([]ScoreRow, len(jobs))}
	for k, job := range jobs {
		resp.Rows[k] = rowOf(job, results[k].Value.res)
	}
	resp.MaxTiming = info.replyTiming()
	resp.MemoHits, resp.MemoMisses = info.memoHit, info.memoMiss
	resp.Pruned = pruned
	resp.Workers = distinctWorkers(results)
	writeJSON(w, http.StatusOK, resp)
}

// Neighbor is one /topk hit: TM is the score normalised by the target
// chain's length (the retrieval convention).
type Neighbor struct {
	ID         string  `json:"id"`
	Index      int     `json:"index"`
	TM         float64 `json:"tm"`
	TM1        float64 `json:"tm1"`
	TM2        float64 `json:"tm2"`
	RMSD       float64 `json:"rmsd"`
	AlignedLen int     `json:"aligned_len"`
	SeqID      float64 `json:"seq_id"`
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	info := infoFrom(r)
	q := r.URL.Query()
	targetID := q.Get("target")
	if targetID == "" {
		s.fail(w, r, http.StatusBadRequest, errors.New("need target= structure id"))
		return
	}
	k := 5
	if ks := q.Get("k"); ks != "" {
		var err error
		if k, err = strconv.Atoi(ks); err != nil || k < 1 {
			s.fail(w, r, http.StatusBadRequest, fmt.Errorf("k=%q is not a positive integer", ks))
			return
		}
	}
	ti, jobs, results, pruned, err := s.oneVsAll(info, targetID)
	if err != nil {
		s.failErr(w, r, err)
		return
	}
	neighbors := make([]Neighbor, len(jobs))
	for i, job := range jobs {
		res := results[i].Value.res
		// TM1 is normalised by the canonical-first chain's length. Report
		// the score normalised by the *target* length (the retrieval
		// convention), so pick TM1 when the target is canonical-first.
		tm, other, otherIdx := res.TM2, job.a, job.i
		if job.i == ti {
			tm, other, otherIdx = res.TM1, job.b, job.j
		}
		neighbors[i] = Neighbor{
			ID: other.ID, Index: otherIdx, TM: tm,
			TM1: res.TM1, TM2: res.TM2, RMSD: res.RMSD,
			AlignedLen: res.AlignedLen, SeqID: res.SeqID,
		}
	}
	sort.SliceStable(neighbors, func(x, y int) bool {
		if neighbors[x].TM != neighbors[y].TM {
			return neighbors[x].TM > neighbors[y].TM
		}
		return neighbors[x].Index < neighbors[y].Index
	})
	if k > len(neighbors) {
		k = len(neighbors)
	}
	writeJSON(w, http.StatusOK, struct {
		Target     string          `json:"target"`
		Index      int             `json:"index"`
		K          int             `json:"k"`
		ReqID      string          `json:"req_id"`
		Neighbors  []Neighbor      `json:"neighbors"`
		MaxTiming  TimingBreakdown `json:"max_timing"`
		MemoHits   int             `json:"memo_hits"`
		MemoMisses int             `json:"memo_misses"`
		Pruned     int             `json:"pruned"`
	}{targetID, ti, k, info.id, neighbors[:k], info.replyTiming(), info.memoHit, info.memoMiss, pruned})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status     string  `json:"status"`
		Structures int     `json:"structures"`
		UptimeS    float64 `json:"uptime_s"`
	}{"ok", s.db.Len(), time.Since(s.start).Seconds()})
}

// BatcherStatsz mirrors batcher.Stats with stable JSON keys.
// QueueDepthPeak is the high-water mark of pending items over the
// server's lifetime — the congestion signal a load sweep watches.
type BatcherStatsz struct {
	Enqueued       int64 `json:"enqueued"`
	Completed      int64 `json:"completed"`
	QueueDepth     int64 `json:"queue_depth"`
	QueueDepthPeak int64 `json:"queue_depth_peak"`
	Batches        int64 `json:"batches"`
	SizeFlushes    int64 `json:"size_flushes"`
	TimerFlushes   int64 `json:"timer_flushes"`
	CloseFlushes   int64 `json:"close_flushes"`
	MaxBatch       int   `json:"max_batch"`
}

// HistogramStatsz is a histogram rendered for /statsz.
type HistogramStatsz struct {
	Buckets []float64 `json:"buckets"`
	Counts  []int64   `json:"counts"`
	Count   int64     `json:"count"`
	Mean    float64   `json:"mean"`
	Max     float64   `json:"max"`
}

// LatencyStatsz is one endpoint's latency summary.
type LatencyStatsz struct {
	Endpoint string  `json:"endpoint"`
	Count    int64   `json:"count"`
	P50S     float64 `json:"p50_s"`
	P95S     float64 `json:"p95_s"`
	P99S     float64 `json:"p99_s"`
	MaxS     float64 `json:"max_s"`
}

// Statsz is the /statsz payload.
type Statsz struct {
	UptimeS    float64                 `json:"uptime_s"`
	Structures int                     `json:"structures"`
	Pairstore  pairstore.StatsSnapshot `json:"pairstore"`
	Batcher    BatcherStatsz           `json:"batcher"`
	BatchSizes HistogramStatsz         `json:"batch_sizes"`
	Latency    []LatencyStatsz         `json:"latency"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	bs := s.bat.Stats()
	st := Statsz{
		UptimeS:    time.Since(s.start).Seconds(),
		Structures: s.db.Len(),
		Pairstore:  s.store.StatsSnapshot(),
		Batcher: BatcherStatsz{
			Enqueued: bs.Enqueued, Completed: bs.Completed, QueueDepth: bs.Pending,
			QueueDepthPeak: bs.PeakPending,
			Batches:        bs.Batches, SizeFlushes: bs.SizeFlushes,
			TimerFlushes: bs.TimerFlushes, CloseFlushes: bs.CloseFlushes,
			MaxBatch: bs.MaxBatch,
		},
	}
	s.metricsMu.Lock()
	s.reg.Gauge("server.queue.depth").Set(float64(bs.Pending))
	bh := s.reg.Histogram("server.batch.size", metrics.CountBuckets)
	snap := s.reg.Snapshot()
	st.BatchSizes = HistogramStatsz{
		Count: bh.Count(), Mean: bh.Mean(), Max: bh.MaxValue(),
	}
	for _, hs := range snap.Histograms {
		if hs.Key == "server.batch.size" {
			st.BatchSizes.Buckets = hs.Buckets
			st.BatchSizes.Counts = hs.Counts
		}
	}
	for _, ep := range observedEndpoints {
		lh := s.endpoints[ep].latency
		if lh.Count() == 0 {
			continue
		}
		st.Latency = append(st.Latency, LatencyStatsz{
			Endpoint: ep, Count: lh.Count(),
			P50S: lh.Quantile(0.50), P95S: lh.Quantile(0.95), P99S: lh.Quantile(0.99),
			MaxS: lh.MaxValue(),
		})
	}
	s.metricsMu.Unlock()
	writeJSON(w, http.StatusOK, st)
}
