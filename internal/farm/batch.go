// Batched and cache-aware dispatch: PrepareJobs transforms an ordered
// job list into the session's configured wire shape — up to Batch jobs
// bundled per request message, and per-slave request sizes resolved at
// dispatch time against the StructCache model. The transformation is a
// pure re-framing of the same work: slaves execute the same handler on
// the same pair payloads, and collection unwraps batched results back
// into per-job results, so application output (TM-align scores) is
// bit-identical to the classic one-message-per-job farm. Because a
// batch is just a Job with a BatchPayload, FARM runs it unchanged —
// under an armed deadline a batch times out, retries and reassigns as
// one unit.
package farm

import (
	"rckalign/internal/costmodel"
	"rckalign/internal/metrics"
	"rckalign/internal/rckskel"
)

// Wire-framing constants of the cached/batched request model.
const (
	// PairHeaderBytes frames a cache-aware single-job request: job id,
	// structure ids and lengths replace coordinates already resident on
	// the slave.
	PairHeaderBytes = 32
	// BatchHeaderBytes frames one batched request message.
	BatchHeaderBytes = 32
	// BatchJobHeaderBytes is the per-job framing inside a batch.
	BatchJobHeaderBytes = 16
	// BatchResultHeaderBytes frames a batched result message on top of
	// the sub-results it carries.
	BatchResultHeaderBytes = 16
)

// BatchPayload bundles several jobs into one request message.
type BatchPayload struct {
	// Jobs are the bundled sub-jobs, in dispatch order.
	Jobs []rckskel.Job
}

// BatchResult carries one result per bundled sub-job back to the
// master; Session collection unwraps it so Collectors only ever see
// per-job results.
type BatchResult struct {
	// Results correspond to BatchPayload.Jobs.
	Results []rckskel.Result
}

// BatchHandler wraps a per-job handler into one that also executes
// BatchPayload jobs: the slave runs the sub-jobs back to back (op
// counts sum), and returns one framed BatchResult. Non-batch jobs pass
// through untouched, so the wrapped handler is safe on classic farms.
func BatchHandler(h rckskel.Handler) rckskel.Handler {
	return func(job rckskel.Job) (any, costmodel.Counter, int) {
		bp, ok := job.Payload.(BatchPayload)
		if !ok {
			return h(job)
		}
		var ops costmodel.Counter
		results := make([]rckskel.Result, 0, len(bp.Jobs))
		bytes := BatchResultHeaderBytes
		for _, sub := range bp.Jobs {
			payload, subOps, resultBytes := h(sub)
			ops.Add(subOps)
			if resultBytes < 1 {
				resultBytes = 1
			}
			results = append(results, rckskel.Result{
				JobID: sub.ID, Payload: payload, Bytes: resultBytes,
			})
			bytes += resultBytes
		}
		return BatchResult{Results: results}, ops, bytes
	}
}

// WireModel tells PrepareJobs how jobs map onto structures: StructsOf
// lists the structure ids a job's request would ship, Sizes[i] is
// structure i's coordinate wire size.
type WireModel struct {
	StructsOf func(j rckskel.Job) []int
	Sizes     []int
}

// wireStats accumulates the dispatch-side wire accounting of a
// prepared session.
type wireStats struct {
	dispatches    int64
	batches       int64
	batchedJobs   int64
	maxBatchJobs  int64
	baselineBytes int64
	shippedBytes  int64
}

// PrepareJobs applies the session's configured wire shape to an
// ordered job list: consecutive jobs are bundled into batches of up to
// Config.Batch, and every produced job gets a SizeFor hook that
// resolves its request size per slave at dispatch time (against the
// structure-cache model when Config.CacheStructs > 0, with batch-level
// structure dedup either way). With Batch <= 1 and no cache it returns
// the jobs unchanged — the classic wire model. Call it once per queue;
// multiple queues of one session share the cache model and the wire
// accounting. Slaves of a batched session must run a BatchHandler-
// wrapped handler.
func (s *Session) PrepareJobs(jobs []rckskel.Job, wm WireModel) []rckskel.Job {
	batch := s.cfg.Batch
	if batch < 1 {
		batch = 1
	}
	cached := s.cfg.CacheStructs > 0
	if batch == 1 && !cached {
		return jobs
	}
	// Split into groups and resolve each group's deduplicated structure
	// list up front: the largest group request must be known before the
	// cache model exists, so its capacity can be raised to fit it (an
	// undersized cache would evict structures of the very request that
	// shipped them, re-shipping on every batch).
	groups := make([][]rckskel.Job, 0, (len(jobs)+batch-1)/batch)
	for start := 0; start < len(jobs); start += batch {
		end := start + batch
		if end > len(jobs) {
			end = len(jobs)
		}
		groups = append(groups, jobs[start:end])
	}
	groupStructs := make([][]int, len(groups))
	maxRequest := 0
	for g, group := range groups {
		var structs []int
		seen := map[int]bool{}
		for _, j := range group {
			for _, id := range wm.StructsOf(j) {
				if !seen[id] {
					seen[id] = true
					structs = append(structs, id)
				}
			}
		}
		groupStructs[g] = structs
		if len(structs) > maxRequest {
			maxRequest = len(structs)
		}
	}
	if cached {
		if s.cache == nil {
			s.cache = NewStructCache(s.cfg.CacheStructs, wm.Sizes, maxRequest, s.cfg.Metrics, s.labels...)
		} else {
			s.cache.EnsureCapacity(maxRequest)
		}
	}
	if s.hBatchJobs == nil {
		s.hBatchJobs = s.cfg.Metrics.Histogram("farm.batch.jobs", metrics.CountBuckets, s.labels...)
		s.cDispatches = s.cfg.Metrics.Counter("farm.wire.dispatches", s.labels...)
		s.cInputBaseline = s.cfg.Metrics.Counter("farm.wire.input_bytes_baseline", s.labels...)
		s.cInputShipped = s.cfg.Metrics.Counter("farm.wire.input_bytes_shipped", s.labels...)
	}
	out := make([]rckskel.Job, 0, len(groups))
	for g, group := range groups {
		out = append(out, s.wireJob(group, groupStructs[g], wm))
	}
	return out
}

// wireJob re-frames one group of jobs (a batch, or a single job when
// batching is off) into a dispatch-sized job. structs is the group's
// deduplicated structure list in first-use order (a batch ships each
// structure at most once), precomputed by PrepareJobs.
func (s *Session) wireJob(group []rckskel.Job, structs []int, wm WireModel) rckskel.Job {
	batched := len(group) > 1 || s.cfg.Batch > 1
	header := PairHeaderBytes
	if batched {
		header = BatchHeaderBytes + BatchJobHeaderBytes*len(group)
	}
	baseline := 0
	for _, j := range group {
		baseline += j.Bytes
	}
	allBytes := 0
	for _, id := range structs {
		allBytes += wm.Sizes[id]
	}
	s.wire.batches++
	s.wire.batchedJobs += int64(len(group))
	if int64(len(group)) > s.wire.maxBatchJobs {
		s.wire.maxBatchJobs = int64(len(group))
	}
	s.hBatchJobs.Observe(float64(len(group)))

	job := rckskel.Job{ID: group[0].ID, Bytes: header + allBytes}
	if batched {
		job.Payload = BatchPayload{Jobs: append([]rckskel.Job(nil), group...)}
	} else {
		job.Payload = group[0].Payload
	}
	job.SizeFor = func(slave int) int {
		bytes := header
		if s.cache != nil {
			bytes += s.cache.Request(slave, structs)
		} else {
			bytes += allBytes
		}
		s.wire.dispatches++
		s.wire.baselineBytes += int64(baseline)
		s.wire.shippedBytes += int64(bytes)
		s.cDispatches.Inc()
		s.cInputBaseline.Add(float64(baseline))
		s.cInputShipped.Add(float64(bytes))
		return bytes
	}
	return job
}

// WireReport is the Report block summarising the cache/batch wire
// model (nil on classic runs that never went through PrepareJobs).
type WireReport struct {
	// CacheCapacity is the modelled per-slave cache size in structures
	// (0 = caching off, batching only).
	CacheCapacity int
	// CacheHits / CacheMisses / CacheEvictions count structure
	// references against the cache model.
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
	// CacheForcedReships counts evictions of structures belonging to the
	// request being dispatched (see CacheStats.ForcedReships); non-zero
	// values flag an undersized cache.
	CacheForcedReships int64
	// CacheHitRate = CacheHits / (CacheHits + CacheMisses).
	CacheHitRate float64
	// BaselineInputBytes is what the classic ship-both-structures model
	// would have sent over the NoC for the same dispatches.
	BaselineInputBytes int64
	// ShippedInputBytes is what the cached/batched model actually sent.
	ShippedInputBytes int64
	// SavedInputBytes = BaselineInputBytes - ShippedInputBytes.
	SavedInputBytes int64
	// InputReduction = BaselineInputBytes / ShippedInputBytes.
	InputReduction float64
	// Batches counts request messages built; BatchedJobs the jobs
	// bundled into them.
	Batches     int64
	BatchedJobs int64
	// MeanBatchJobs / MaxBatchJobs describe the batch-size distribution.
	MeanBatchJobs float64
	MaxBatchJobs  int64
}

// wireReport distills the session's wire accounting, or nil when the
// session dispatched classically.
func (s *Session) wireReport() *WireReport {
	if s.wire.batches == 0 {
		return nil
	}
	w := &WireReport{
		BaselineInputBytes: s.wire.baselineBytes,
		ShippedInputBytes:  s.wire.shippedBytes,
		SavedInputBytes:    s.wire.baselineBytes - s.wire.shippedBytes,
		Batches:            s.wire.batches,
		BatchedJobs:        s.wire.batchedJobs,
		MaxBatchJobs:       s.wire.maxBatchJobs,
	}
	if s.wire.shippedBytes > 0 {
		w.InputReduction = float64(s.wire.baselineBytes) / float64(s.wire.shippedBytes)
	}
	if s.wire.batches > 0 {
		w.MeanBatchJobs = float64(s.wire.batchedJobs) / float64(s.wire.batches)
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		w.CacheCapacity = s.cache.Capacity()
		w.CacheHits = cs.Hits
		w.CacheMisses = cs.Misses
		w.CacheEvictions = cs.Evictions
		w.CacheForcedReships = cs.ForcedReships
		if cs.Hits+cs.Misses > 0 {
			w.CacheHitRate = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
		}
	}
	return w
}
