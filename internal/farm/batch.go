// Batched and cache-aware dispatch: PrepareJobs turns an ordered pair
// list into jobs of the session's configured wire shape — up to Batch jobs
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
	"cmp"
	"fmt"

	"rckalign/internal/costmodel"
	"rckalign/internal/metrics"
	"rckalign/internal/rckskel"
	"rckalign/internal/sched"
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
// master; Session collection unwraps it so Collect hooks only ever see
// per-job results.
type BatchResult struct {
	// Results correspond to BatchPayload.Jobs.
	Results []rckskel.Result
}

// batchHandler wraps a per-job handler into one that executes a
// BatchPayload job: the slave runs the sub-jobs back to back (op counts
// sum), and returns one framed BatchResult. StartSlaves installs it on a
// batched session, where every job PrepareJobs builds is a batch.
func batchHandler(h rckskel.Handler) rckskel.Handler {
	return func(job rckskel.Job) (any, costmodel.Counter, int) {
		bp := job.Payload.(BatchPayload)
		var ops costmodel.Counter
		results := make([]rckskel.Result, 0, len(bp.Jobs))
		bytes := BatchResultHeaderBytes
		for _, sub := range bp.Jobs {
			payload, subOps, resultBytes := h(sub)
			ops.Add(subOps)
			resultBytes = max(resultBytes, 1)
			results = append(results, rckskel.Result{
				JobID: sub.ID, Payload: payload, Bytes: resultBytes,
			})
			bytes += resultBytes
		}
		return BatchResult{Results: results}, ops, bytes
	}
}

// wireStats accumulates a chip's dispatch-side wire accounting and, with
// the structure-cache model on, its capacity and statistics; summed over
// the chips it is the board's.
type wireStats struct {
	dispatches    int64
	batches       int64
	batchedJobs   int64
	maxBatchJobs  int64
	baselineBytes int64
	shippedBytes  int64
	capacity      int
	cache         CacheStats
}

// wireTotals is chip c's wire accounting, cache model included.
func (c *chip) wireTotals() wireStats {
	w := c.wire
	if c.cache != nil {
		w.capacity, w.cache = c.cache.Capacity(), c.cache.Stats()
	}
	return w
}

// add folds another chip's accounting in (the first cache capacity
// stands for the board's).
func (w *wireStats) add(o wireStats) {
	w.batches += o.batches
	w.batchedJobs += o.batchedJobs
	w.maxBatchJobs = max(w.maxBatchJobs, o.maxBatchJobs)
	w.baselineBytes += o.baselineBytes
	w.shippedBytes += o.shippedBytes
	w.capacity = cmp.Or(w.capacity, o.capacity)
	w.cache.Hits += o.cache.Hits
	w.cache.Misses += o.cache.Misses
	w.cache.Evictions += o.cache.Evictions
	w.cache.ForcedReships += o.cache.ForcedReships
}

// PrepareJobs is the one way work enters chip c's farm: it turns an
// ordered pair list into jobs of the session's wire shape. Job k gets ID
// idBase+k and the payload &pairs[k] (pairs must not change while they
// run); its classic request ships both structures, sizes[I]+sizes[J]
// bytes, and a size below 1 is rejected with rckskel.ErrJobBytes — it
// would silently corrupt the NoC transfer model downstream. With
// Config.Batch <= 1 and no structure cache those are the jobs; otherwise
// consecutive jobs are bundled into batches of up to Config.Batch, and
// every produced job gets a SizeFor hook that resolves its request size
// per slave at dispatch time (against the structure-cache model when
// Config.CacheStructs > 0, with batch-level structure dedup either way).
// Call it once per queue: the queues of one chip share its cache model
// and its wire accounting. The chip's ledger is credited here with the
// jobs and pairs, so the run's finalize finds any prepared job that no
// master farmed; Master.Scatter prices a shard at the sizes recorded
// here. Under a fault plan that injects something, Run times the jobs to
// arm the deadline.
func (s *Session) PrepareJobs(c int, pairs []sched.Pair, idBase int, sizes []int) ([]rckskel.Job, error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	ch := s.chips[c]
	jobs := make([]rckskel.Job, len(pairs))
	for k := range pairs {
		p := &pairs[k]
		b := sizes[p.I] + sizes[p.J]
		if b < 1 {
			return nil, fmt.Errorf("farm: pair (%d,%d): %w (sized %d)", p.I, p.J, rckskel.ErrJobBytes, b)
		}
		jobs[k] = rckskel.Job{ID: idBase + k, Payload: p, Bytes: b}
	}
	s.sizes = sizes
	ch.ledger.pairs += len(pairs)
	if !s.cfg.Faults.Empty() {
		s.timed = append(s.timed, jobs...)
	}
	batch := max(s.cfg.Batch, 1)
	cached := s.cfg.CacheStructs > 0
	if batch == 1 && !cached {
		ch.ledger.jobs += len(jobs)
		return jobs, nil
	}
	// Resolve each group's deduplicated structure list (first-use order)
	// up front: the largest request must be known before the cache model
	// exists, so its capacity can be raised to fit it (an undersized cache
	// would evict structures of the very request that shipped them,
	// re-shipping on every batch).
	groups := (len(jobs) + batch - 1) / batch
	structs := make([]int, 0, 2*len(pairs)) // every group's list, back to back
	bounds := make([]int, groups+1)         // group g's list is structs[bounds[g]:bounds[g+1]]
	inGroup := make([]bool, len(sizes))
	maxRequest := 0
	for g := range groups {
		from := bounds[g]
		for _, p := range pairs[g*batch : min((g+1)*batch, len(pairs))] {
			for _, id := range [2]int{p.I, p.J} {
				if !inGroup[id] {
					inGroup[id] = true
					structs = append(structs, id)
				}
			}
		}
		for _, id := range structs[from:] {
			inGroup[id] = false
		}
		bounds[g+1] = len(structs)
		maxRequest = max(maxRequest, len(structs)-from)
	}
	if cached {
		if ch.cache == nil {
			ch.cache = NewStructCache(s.cfg.CacheStructs, sizes, maxRequest)
		} else {
			ch.cache.EnsureCapacity(maxRequest)
		}
	}
	if ch.hBatchJobs == nil {
		ch.hBatchJobs = s.cfg.Metrics.Histogram("farm.batch.jobs", metrics.CountBuckets, ch.labels...)
	}
	out := make([]rckskel.Job, groups)
	for g := range out {
		last, end := min((g+1)*batch, len(jobs)), bounds[g+1]
		out[g] = ch.wireJob(jobs[g*batch:last:last], structs[bounds[g]:end:end], sizes, s.cfg.Batch > 1)
	}
	ch.ledger.jobs += len(out)
	return out, nil
}

// wireJob re-frames one group of jobs (a batch, or a single job when
// batching is off) into a dispatch-sized job. structs is the group's
// deduplicated structure list in first-use order (a batch ships each
// structure at most once), precomputed by PrepareJobs.
func (c *chip) wireJob(group []rckskel.Job, structs []int, sizes []int, batching bool) rckskel.Job {
	batched := len(group) > 1 || batching
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
		allBytes += sizes[id]
	}
	c.wire.batches++
	c.wire.batchedJobs += int64(len(group))
	c.wire.maxBatchJobs = max(c.wire.maxBatchJobs, int64(len(group)))
	c.hBatchJobs.Observe(float64(len(group)))

	job := rckskel.Job{ID: group[0].ID, Bytes: header + allBytes}
	if batched {
		job.Payload = BatchPayload{Jobs: group}
	} else {
		job.Payload = group[0].Payload
	}
	job.SizeFor = func(slave int) int {
		bytes := header
		if c.cache != nil {
			bytes += c.cache.Request(slave, structs)
		} else {
			bytes += allBytes
		}
		c.wire.dispatches++
		c.wire.baselineBytes += int64(baseline)
		c.wire.shippedBytes += int64(bytes)
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

// report distills the wire accounting, or nil when nothing went
// through PrepareJobs.
func (w wireStats) report() *WireReport {
	if w.batches == 0 {
		return nil
	}
	r := &WireReport{
		CacheCapacity:      w.capacity,
		CacheHits:          w.cache.Hits,
		CacheMisses:        w.cache.Misses,
		CacheEvictions:     w.cache.Evictions,
		CacheForcedReships: w.cache.ForcedReships,
		BaselineInputBytes: w.baselineBytes,
		ShippedInputBytes:  w.shippedBytes,
		SavedInputBytes:    w.baselineBytes - w.shippedBytes,
		Batches:            w.batches,
		BatchedJobs:        w.batchedJobs,
		MeanBatchJobs:      float64(w.batchedJobs) / float64(w.batches),
		MaxBatchJobs:       w.maxBatchJobs,
	}
	if w.shippedBytes > 0 {
		r.InputReduction = float64(w.baselineBytes) / float64(w.shippedBytes)
	}
	if w.cache.Hits+w.cache.Misses > 0 {
		r.CacheHitRate = float64(w.cache.Hits) / float64(w.cache.Hits+w.cache.Misses)
	}
	return r
}
