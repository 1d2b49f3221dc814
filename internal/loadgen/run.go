// Open-loop replay: BuildRequests turns an arrival schedule into
// concrete HTTP requests (deterministically — targets are drawn with
// the same seeded generator every run), and Runner fires them at their
// scheduled offsets against a live server, recording one Sample per
// request.
package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"
)

// Request is one concrete scheduled request of a run.
type Request struct {
	Arrival
	// ReqID is the client-assigned end-to-end request ID, sent as
	// X-Request-ID and echoed by the server in responses and its access
	// log.
	ReqID string `json:"req_id"`
	// Method and Path are the HTTP call (path includes the query).
	Method string `json:"method"`
	Path   string `json:"path"`
}

// BuildRequests binds each arrival to a target: /score gets two
// distinct structures, /onevsall and /topk get one. Targets are drawn
// from ids with a generator seeded by seed, so the full schedule —
// including target choice — is deterministic. k is the -topk neighbor
// count.
func BuildRequests(arrivals []Arrival, ids []string, seed int64, k int) ([]Request, error) {
	if len(ids) < 2 {
		return nil, fmt.Errorf("loadgen: need at least 2 structure ids, have %d", len(ids))
	}
	if k < 1 {
		k = 5
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]Request, len(arrivals))
	for i, a := range arrivals {
		req := Request{
			Arrival: a,
			ReqID:   fmt.Sprintf("load-%d-%06d", seed, i),
		}
		switch a.Op {
		case OpScore:
			x := rng.Intn(len(ids))
			y := rng.Intn(len(ids) - 1)
			if y >= x {
				y++
			}
			req.Method = http.MethodGet
			req.Path = "/score?a=" + url.QueryEscape(ids[x]) + "&b=" + url.QueryEscape(ids[y])
		case OpOneVsAll:
			req.Method = http.MethodPost
			req.Path = "/onevsall?target=" + url.QueryEscape(ids[rng.Intn(len(ids))])
		case OpTopK:
			req.Method = http.MethodGet
			req.Path = fmt.Sprintf("/topk?target=%s&k=%d", url.QueryEscape(ids[rng.Intn(len(ids))]), k)
		default:
			return nil, fmt.Errorf("loadgen: unknown op %q at arrival %d", a.Op, i)
		}
		out[i] = req
	}
	return out, nil
}

// WriteSchedule dumps the deterministic schedule as JSON lines (one
// Request per line) — the artifact rckload's test compares across runs to
// pin the determinism contract.
func WriteSchedule(w io.Writer, reqs []Request) error {
	for _, r := range reqs {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// Error classes recorded in Sample.ErrClass.
const (
	ErrClassTransport = "transport"
	ErrClass4xx       = "http_4xx"
	ErrClass5xx       = "http_5xx"
)

// ServerTiming is the server-reported part of a sample, parsed from
// the JSON response: where the request's time went inside the server
// (queue wait, batch assembly, compute), which worker computed it,
// whether the pair(s) came from the memo store, and the coalescer
// backlog seen at enqueue. For multi-pair requests the breakdown is the
// slowest item's (the critical path) and MemoHits/MemoMisses count all
// pairs.
type ServerTiming struct {
	QueueWaitS     float64 `json:"queue_wait_s"`
	AssemblyS      float64 `json:"assembly_s"`
	ComputeS       float64 `json:"compute_s"`
	TotalS         float64 `json:"total_s"`
	EnqueueOffsetS float64 `json:"enqueue_offset_s"`
	Worker         int     `json:"worker"`
	BatchSize      int     `json:"batch_size"`
	MemoHit        bool    `json:"memo_hit"`
	MemoHits       int     `json:"memo_hits"`
	MemoMisses     int     `json:"memo_misses"`
	QueueDepth     int64   `json:"queue_depth"`
	HasTiming      bool    `json:"has_timing"`
}

// Sample is one completed (or failed) request of a run.
type Sample struct {
	Index     int           `json:"index"`
	Op        Op            `json:"op"`
	Slot      int           `json:"slot"`
	ReqID     string        `json:"req_id"`
	Scheduled time.Duration `json:"scheduled"`
	// Start is the actual send offset; Start-Scheduled is scheduler lag,
	// kept separate from server latency so the open-loop property is
	// auditable.
	Start    time.Duration `json:"start"`
	Latency  time.Duration `json:"latency"`
	Status   int           `json:"status"`
	ErrClass string        `json:"err_class,omitempty"`
	Err      string        `json:"err,omitempty"`
	Server   ServerTiming  `json:"server"`
}

// OK reports whether the request completed successfully.
func (s Sample) OK() bool { return s.ErrClass == "" }

// scoreBody is the superset of response fields the runner extracts;
// every query endpoint's JSON reply unmarshals into it.
type scoreBody struct {
	ReqID      string `json:"req_id"`
	BatchSize  int    `json:"batch_size"`
	Worker     int    `json:"worker"`
	MemoHit    bool   `json:"memo_hit"`
	MemoHits   int    `json:"memo_hits"`
	MemoMisses int    `json:"memo_misses"`
	QueueDepth int64  `json:"queue_depth"`
	Timing     *struct {
		QueueWaitS float64 `json:"queue_wait_s"`
		AssemblyS  float64 `json:"assembly_s"`
		ComputeS   float64 `json:"compute_s"`
		TotalS     float64 `json:"total_s"`
	} `json:"timing"`
	MaxTiming *struct {
		QueueWaitS float64 `json:"queue_wait_s"`
		AssemblyS  float64 `json:"assembly_s"`
		ComputeS   float64 `json:"compute_s"`
		TotalS     float64 `json:"total_s"`
	} `json:"max_timing"`
	EnqueueOffsetRaw float64 `json:"enqueue_offset_s"`
}

// Runner replays a schedule against a server. Zero-value fields take
// defaults at Run time.
type Runner struct {
	// Base is the server root, e.g. "http://127.0.0.1:8344".
	Base string
	// Client is the HTTP client (default: a fresh client with no
	// timeout — open-loop tails can be long, and classifying a slow
	// response as transport error would corrupt the SLO report).
	Client *http.Client
}

// FetchIDs lists the server's structure IDs in index order, the pool
// BuildRequests draws targets from.
func (r *Runner) FetchIDs() ([]string, error) {
	client := r.Client
	if client == nil {
		client = &http.Client{}
	}
	resp, err := client.Get(r.Base + "/structures")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: GET /structures: HTTP %d", resp.StatusCode)
	}
	var list struct {
		Structures []struct {
			ID    string `json:"id"`
			Index int    `json:"index"`
		} `json:"structures"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		return nil, err
	}
	ids := make([]string, len(list.Structures))
	for _, st := range list.Structures {
		if st.Index < 0 || st.Index >= len(ids) {
			return nil, fmt.Errorf("loadgen: structure index %d out of range", st.Index)
		}
		ids[st.Index] = st.ID
	}
	return ids, nil
}

// Run replays the schedule open-loop: a dispatcher sleeps to each
// request's offset and fires it on its own goroutine, never waiting
// for outstanding responses. It returns one sample per request
// (index-aligned) and the wall time of the whole run including the
// drain of in-flight requests.
func (r *Runner) Run(reqs []Request) ([]Sample, time.Duration) {
	client := r.Client
	if client == nil {
		client = &http.Client{}
	}
	samples := make([]Sample, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, req := range reqs {
		if d := time.Until(start.Add(req.At)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			samples[i] = r.fire(client, start, i, req)
		}(i, req)
	}
	wg.Wait()
	return samples, time.Since(start)
}

// fire sends one request and builds its sample.
func (r *Runner) fire(client *http.Client, start time.Time, i int, req Request) Sample {
	s := Sample{
		Index: i, Op: req.Op, Slot: req.Slot, ReqID: req.ReqID,
		Scheduled: req.At, Start: time.Since(start),
	}
	t0 := time.Now()
	hreq, err := http.NewRequest(req.Method, r.Base+req.Path, nil)
	if err != nil {
		s.ErrClass, s.Err = ErrClassTransport, err.Error()
		return s
	}
	hreq.Header.Set("X-Request-ID", req.ReqID)
	resp, err := client.Do(hreq)
	if err != nil {
		s.Latency = time.Since(t0)
		s.ErrClass, s.Err = ErrClassTransport, err.Error()
		return s
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.Latency = time.Since(t0)
	s.Status = resp.StatusCode
	if err != nil {
		s.ErrClass, s.Err = ErrClassTransport, err.Error()
		return s
	}
	switch {
	case resp.StatusCode >= 500:
		s.ErrClass, s.Err = ErrClass5xx, trim(body)
		return s
	case resp.StatusCode >= 400:
		s.ErrClass, s.Err = ErrClass4xx, trim(body)
		return s
	}
	var sb scoreBody
	if json.Unmarshal(body, &sb) == nil {
		st := ServerTiming{
			Worker: sb.Worker, BatchSize: sb.BatchSize,
			MemoHit: sb.MemoHit, MemoHits: sb.MemoHits, MemoMisses: sb.MemoMisses,
			QueueDepth: sb.QueueDepth, EnqueueOffsetS: sb.EnqueueOffsetRaw,
		}
		if sb.MemoHit {
			st.MemoHits++
		} else if sb.Timing != nil {
			// /score reports a single pair; fold its outcome into the
			// hit/miss counters so all ops aggregate uniformly.
			st.MemoMisses++
		}
		t := sb.Timing
		if t == nil {
			t = sb.MaxTiming
		}
		if t != nil {
			st.QueueWaitS, st.AssemblyS = t.QueueWaitS, t.AssemblyS
			st.ComputeS, st.TotalS = t.ComputeS, t.TotalS
			st.HasTiming = true
		}
		s.Server = st
	}
	return s
}

func trim(b []byte) string {
	const max = 200
	if len(b) > max {
		b = b[:max]
	}
	return string(b)
}
