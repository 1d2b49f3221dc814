package metrics

import (
	"bytes"
	"strings"
	"testing"
)

func TestKey(t *testing.T) {
	if got := Key("noc.link.bytes"); got != "noc.link.bytes" {
		t.Errorf("bare key = %q", got)
	}
	if got := Key("farm.slave.jobs", "slave", "rck01"); got != "farm.slave.jobs{slave=rck01}" {
		t.Errorf("labeled key = %q", got)
	}
	if got := Key("x", "a", "1", "b", "2"); got != "x{a=1,b=2}" {
		t.Errorf("two-label key = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("odd label count did not panic")
		}
	}()
	Key("x", "orphan")
}

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("c", "k", "v")
	c.Inc()
	c.Add(2.5)
	if c.Value() != 3.5 {
		t.Errorf("counter = %v", c.Value())
	}
	if r.Counter("c", "k", "v") != c {
		t.Error("same key returned a different counter")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Max(3) // lower: ignored
	g.Max(9)
	if g.Value() != 9 {
		t.Errorf("gauge = %v", g.Value())
	}
}

func TestHistogram(t *testing.T) {
	r := New()
	h := r.Histogram("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 560.5 {
		t.Errorf("count/sum = %d/%v", h.Count(), h.Sum())
	}
	if h.MaxValue() != 500 || h.Mean() != 112.1 {
		t.Errorf("max/mean = %v/%v", h.MaxValue(), h.Mean())
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %+v", snap.Histograms)
	}
	hs := snap.Histograms[0]
	want := []int64{1, 2, 1, 1} // <=1, <=10, <=100, +Inf
	for i, c := range hs.Counts {
		if c != want[i] {
			t.Errorf("bucket counts = %v, want %v", hs.Counts, want)
			break
		}
	}
	if hs.Min == nil || *hs.Min != 0.5 || hs.Max == nil || *hs.Max != 500 {
		t.Errorf("min/max snapshot = %v/%v", hs.Min, hs.Max)
	}
}

func TestSeries(t *testing.T) {
	r := New()
	s := r.Series("depth")
	s.Append(0, 1)
	s.Append(1, 2)
	s.Append(1, 3) // same instant: keep the final state only
	s.Append(2, 1)
	pts := s.Points()
	if len(pts) != 3 || pts[1] != (Point{T: 1, V: 3}) || pts[2] != (Point{T: 2, V: 1}) {
		t.Errorf("points = %v", pts)
	}
}

// TestNilRegistryIsFree pins the disabled path: nil registries hand out
// nil handles and every handle method is a safe no-op.
func TestNilRegistryIsFree(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", TimeBuckets)
	s := r.Series("s")
	if c != nil || g != nil || h != nil || s != nil {
		t.Fatal("nil registry returned non-nil handles")
	}
	c.Inc()
	c.Add(1)
	g.Set(1)
	g.Max(1)
	h.Observe(1)
	s.Append(1, 1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Mean() != 0 || len(s.Points()) != 0 {
		t.Error("nil handles accumulated state")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms)+len(snap.Series) != 0 {
		t.Errorf("nil snapshot not empty: %+v", snap)
	}
}

// TestSnapshotDeterminism pins the byte-identical guarantee: the same
// recording sequence must serialise identically, with sections sorted by
// key regardless of creation order.
func TestSnapshotDeterminism(t *testing.T) {
	build := func(order []string) *Registry {
		r := New()
		for _, name := range order {
			r.Counter(name).Inc()
		}
		r.Series("z.series").Append(1, 2)
		r.Histogram("m.hist", TimeBuckets).Observe(0.25)
		r.Gauge("a.gauge").Set(4)
		return r
	}
	var b1, b2 bytes.Buffer
	if err := build([]string{"b", "a", "c"}).WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build([]string{"c", "b", "a"}).WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Errorf("snapshots differ:\n%s\n---\n%s", b1.String(), b2.String())
	}
	out := b1.String()
	for _, want := range []string{`"a"`, `"z.series"`, `"m.hist"`, `"a.gauge"`} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot missing %s:\n%s", want, out)
		}
	}
	if strings.Index(out, `"key": "a"`) > strings.Index(out, `"key": "b"`) {
		t.Error("counters not sorted by key")
	}
}

func TestHistogramQuantile(t *testing.T) {
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil histogram quantile = %v, want 0", got)
	}
	h := NewHistogram([]float64{1, 10, 100})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	// 100 observations spread uniformly over (1, 10].
	for i := 1; i <= 100; i++ {
		h.Observe(1 + 9*float64(i)/100)
	}
	if got := h.Quantile(0); got != h.min {
		t.Errorf("q=0 -> %v, want min %v", got, h.min)
	}
	if got := h.Quantile(1); got != h.max {
		t.Errorf("q=1 -> %v, want max %v", got, h.max)
	}
	// All mass is in the (1, 10] bucket: the median interpolates to its
	// middle, and estimates are bounded by the observed extremes.
	if got := h.Quantile(0.5); got < 4 || got > 7 {
		t.Errorf("median = %v, want ~5.5 (mid-bucket interpolation)", got)
	}
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99} {
		got := h.Quantile(q)
		if got < h.min || got > h.max {
			t.Errorf("q=%v -> %v outside observed [%v, %v]", q, got, h.min, h.max)
		}
	}
	// Quantiles are monotone in q.
	prev := h.Quantile(0)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		got := h.Quantile(q)
		if got < prev {
			t.Errorf("quantile not monotone: q=%v -> %v below %v", q, got, prev)
		}
		prev = got
	}

	// A single observation: every quantile is that value.
	h1 := NewHistogram(TimeBuckets)
	h1.Observe(0.042)
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		if got := h1.Quantile(q); got != 0.042 {
			t.Errorf("single-observation q=%v -> %v, want 0.042", q, got)
		}
	}

	// Two distinct buckets: p99 lands in the upper one.
	h2 := NewHistogram([]float64{1, 10})
	for i := 0; i < 99; i++ {
		h2.Observe(0.5)
	}
	h2.Observe(5)
	if got := h2.Quantile(0.995); got <= 1 {
		t.Errorf("p99.5 = %v, want in the upper bucket (> 1)", got)
	}
	if got := h2.Quantile(0.5); got < 0.5 || got > 1 {
		t.Errorf("median = %v, want inside the lower bucket [0.5, 1]", got)
	}
}

// TestHistogramQuantileOverflowBucket pins the overflow path: with all
// mass above the last bound, every quantile stays clamped inside the
// observed range instead of extrapolating to infinity.
func TestHistogramQuantileOverflowBucket(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	for i := 0; i < 50; i++ {
		h.Observe(100 + float64(i))
	}
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if got < 100 || got > 149 {
			t.Errorf("overflow-bucket q=%v -> %v, want within observed [100, 149]", q, got)
		}
	}
	if got := h.Quantile(1); got != 149 {
		t.Errorf("q=1 -> %v, want exact max 149", got)
	}
}
