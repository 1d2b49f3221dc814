// Package metrics is a lightweight registry of counters, gauges,
// fixed-bucket histograms and time series for the simulated stack. It is
// the machine-readable counterpart of the ASCII views in internal/trace
// and internal/stats: every layer (sim engine, noc mesh, rcce comm,
// rckskel farms) records into one Registry, and Snapshot renders the
// whole registry as deterministic JSON — same run, byte-identical dump.
//
// Design rules, enforced across the stack:
//
//   - Disabled means free: a nil *Registry hands out nil instrument
//     handles, and every handle method is a no-op on a nil receiver, so
//     instrumented hot paths cost one pointer test when metrics are off.
//   - Simulated time only: series samples carry the sim clock, never the
//     host clock, so identical runs produce identical snapshots.
//   - No background goroutines, no locks: the simulation engine runs
//     exactly one goroutine at a time, and the registry relies on that.
//   - Handles are cached by callers on their hot paths; Registry lookups
//     (map + key build) are for setup, not per-event code.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Key builds the canonical instrument key: name{k1=v1,k2=v2}. Labels are
// alternating key, value pairs and are kept in the order given (callers
// use a fixed order per metric name, so keys stay comparable).
func Key(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	if len(labels)%2 != 0 {
		panic("metrics: labels must be alternating key, value pairs")
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteByte('=')
		b.WriteString(labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Registry holds every instrument of one run. The zero value is not
// usable; a nil registry is the disabled state (see package comment).
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	series   map[string]*Series
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		series:   map[string]*Series{},
	}
}

// Counter returns (creating on first use) the counter for name+labels.
// Returns nil on a nil registry.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	k := Key(name, labels...)
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns (creating on first use) the gauge for name+labels.
// Returns nil on a nil registry.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	k := Key(name, labels...)
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns (creating on first use) the histogram for
// name+labels with the given bucket upper bounds (ascending; an implicit
// +Inf bucket is appended). Buckets are fixed at creation: later calls
// with the same key return the existing histogram regardless of the
// buckets argument. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	k := Key(name, labels...)
	h, ok := r.hists[k]
	if !ok {
		h = NewHistogram(buckets)
		r.hists[k] = h
	}
	return h
}

// Series returns (creating on first use) the time series for
// name+labels. Returns nil on a nil registry.
func (r *Registry) Series(name string, labels ...string) *Series {
	if r == nil {
		return nil
	}
	k := Key(name, labels...)
	s, ok := r.series[k]
	if !ok {
		s = &Series{}
		r.series[k] = s
	}
	return s
}

// Counter is a monotonically increasing sum (counts, bytes, seconds).
type Counter struct{ v float64 }

// Add increases the counter; no-op on a nil receiver.
func (c *Counter) Add(v float64) {
	if c == nil {
		return
	}
	c.v += v
}

// Inc adds one; no-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current sum (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-write-wins value (queue depth, busy seconds at end of
// run).
type Gauge struct{ v float64 }

// Set stores v; no-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Max stores v if it exceeds the current value; no-op on nil.
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	if v > g.v {
		g.v = v
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// TimeBuckets is the default log-spaced bucket ladder for simulated
// latencies, 1 µs .. 1000 s.
var TimeBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100, 1000,
}

// SizeBuckets is the default bucket ladder for message/transfer sizes in
// bytes (64 B .. 16 MB).
var SizeBuckets = []float64{
	64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 16777216,
}

// HopBuckets covers mesh route lengths on a 6x4 grid (max 8 hops).
var HopBuckets = []float64{1, 2, 3, 4, 5, 6, 7, 8}

// CountBuckets is the power-of-two ladder for small cardinalities
// (jobs per batch, structures per request).
var CountBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// Histogram counts observations into fixed buckets and tracks
// count/sum/min/max exactly.
type Histogram struct {
	bounds   []float64 // ascending upper bounds; final +Inf implicit
	counts   []int64   // len(bounds)+1
	count    int64
	sum      float64
	min, max float64
}

// NewHistogram returns an empty histogram outside any registry, with
// the given bucket upper bounds (strictly ascending; an implicit +Inf
// bucket is appended). It has no lock of its own: a caller that shares
// it across goroutines guards it.
func NewHistogram(buckets []float64) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("metrics: histogram buckets must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), buckets...),
		counts: make([]int64, len(buckets)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Observe records one value; no-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// MaxValue returns the largest observation (0 when empty or nil).
func (h *Histogram) MaxValue() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.max
}

// Mean returns the average observation (0 when empty or nil).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket
// counts by linear interpolation inside the bucket that holds the
// target rank, clamped to the exact observed min/max. The estimate's
// resolution is the bucket width — good enough for the p50/p95/p99
// figures a /statsz endpoint reports. Returns 0 when empty or nil.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.count)
	cum := 0.0
	for i, c := range h.counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		// Bucket i spans (bounds[i-1], bounds[i]]; clamp to the observed
		// extremes so sparse histograms do not extrapolate past real data.
		lo, hi := h.min, h.max
		if i > 0 && h.bounds[i-1] > lo {
			lo = h.bounds[i-1]
		}
		if i < len(h.bounds) && h.bounds[i] < hi {
			hi = h.bounds[i]
		}
		if hi < lo {
			hi = lo
		}
		return lo + (rank-prev)/float64(c)*(hi-lo)
	}
	return h.max
}

// Point is one time-series sample at simulated time T.
type Point struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// Series is an append-only time series (mailbox depth, links in
// flight). Samples are recorded at state changes, not on a timer, so the
// series is exact and adds no simulation events.
type Series struct{ points []Point }

// Append records a sample; no-op on a nil receiver. Consecutive samples
// at the same time keep only the last value (the state after the
// simultaneous events).
func (s *Series) Append(t, v float64) {
	if s == nil {
		return
	}
	if n := len(s.points); n > 0 && s.points[n-1].T == t {
		s.points[n-1].V = v
		return
	}
	s.points = append(s.points, Point{T: t, V: v})
}

// Points returns the recorded samples (nil-safe).
func (s *Series) Points() []Point {
	if s == nil {
		return nil
	}
	return append([]Point(nil), s.points...)
}

// ScalarSnapshot is one counter or gauge in a snapshot.
type ScalarSnapshot struct {
	Key   string  `json:"key"`
	Value float64 `json:"value"`
}

// HistogramSnapshot is one histogram in a snapshot. Min/Max are omitted
// when the histogram is empty.
type HistogramSnapshot struct {
	Key     string    `json:"key"`
	Buckets []float64 `json:"buckets"`
	Counts  []int64   `json:"counts"`
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Min     *float64  `json:"min,omitempty"`
	Max     *float64  `json:"max,omitempty"`
}

// Snapshot copies the histogram's state, with an empty Key.
func (h *Histogram) Snapshot() HistogramSnapshot {
	hs := HistogramSnapshot{
		Buckets: append([]float64(nil), h.bounds...),
		Counts:  append([]int64(nil), h.counts...),
		Count:   h.count,
		Sum:     h.sum,
	}
	if h.count > 0 {
		min, max := h.min, h.max
		hs.Min, hs.Max = &min, &max
	}
	return hs
}

// SeriesSnapshot is one time series in a snapshot.
type SeriesSnapshot struct {
	Key    string  `json:"key"`
	Points []Point `json:"points"`
}

// Snapshot is the full registry state, ordered deterministically (each
// section sorted by key).
type Snapshot struct {
	Counters   []ScalarSnapshot    `json:"counters"`
	Gauges     []ScalarSnapshot    `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
	Series     []SeriesSnapshot    `json:"series"`
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Snapshot captures the registry. Nil registries snapshot as empty.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   []ScalarSnapshot{},
		Gauges:     []ScalarSnapshot{},
		Histograms: []HistogramSnapshot{},
		Series:     []SeriesSnapshot{},
	}
	if r == nil {
		return snap
	}
	for _, k := range sortedKeys(r.counters) {
		snap.Counters = append(snap.Counters, ScalarSnapshot{Key: k, Value: r.counters[k].v})
	}
	for _, k := range sortedKeys(r.gauges) {
		snap.Gauges = append(snap.Gauges, ScalarSnapshot{Key: k, Value: r.gauges[k].v})
	}
	for _, k := range sortedKeys(r.hists) {
		hs := r.hists[k].Snapshot()
		hs.Key = k
		snap.Histograms = append(snap.Histograms, hs)
	}
	for _, k := range sortedKeys(r.series) {
		snap.Series = append(snap.Series, SeriesSnapshot{
			Key:    k,
			Points: append([]Point{}, r.series[k].points...),
		})
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON. encoding/json formats
// float64 with the shortest round-trip representation, so the output is
// byte-deterministic for identical runs.
func (r *Registry) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("metrics: marshal snapshot: %w", err)
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}
