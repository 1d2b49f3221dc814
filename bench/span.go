package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rckalign/internal/trace"
)

// span is one timed interval at a layer boundary. Offsets are host time
// since the tracer started. Parent is the index of the span that caused
// this one (-1 for a root); Lane names the goroutine-like track the span
// ran on ("main", "client-1", ...) and is empty for spans whose lane is
// assigned by packing when the trace is written.
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int
	Lane       string
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced passes run the same statements without the bookkeeping.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, lane string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Lane: lane})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes the span opened by begin.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a span whose interval is already known (a server-side
// stage rebuilt from the timing a reply carries).
func (t *tracer) add(name string, start, end time.Duration, parent int, lane string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Lane: lane})
	t.mu.Unlock()
}

// since converts a host instant into the tracer's offset.
func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.t0) }

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover. Children that run
// in parallel (compare spans under one prefetch) each keep their own
// duration, so the total over all names is busy time, comparable with
// the process CPU time of the same interval.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	children := make(map[int][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range t.spans {
		covered := time.Duration(0)
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		edge := s.Start
		for _, k := range kids {
			cs, ce := t.spans[k].Start, t.spans[k].End
			if cs < edge {
				cs = edge
			}
			if ce > s.End {
				ce = s.End
			}
			if ce > cs {
				covered += ce - cs
				edge = ce
			}
		}
		out[s.Name] += s.End - s.Start - covered
	}
	return out
}

// seconds returns the durations, in seconds, of every span with the
// given name.
func (t *tracer) seconds(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, (s.End - s.Start).Seconds())
		}
	}
	return out
}

// writeChrome writes the spans as one Chrome/Perfetto trace file. Spans
// without a lane are packed greedily onto "<name>-N" tracks so parallel
// work shows as parallel lanes.
func (t *tracer) writeChrome(path string) error {
	rec := trace.New()
	order := make([]int, len(t.spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return t.spans[order[a]].Start < t.spans[order[b]].Start })
	laneEnds := map[string][]time.Duration{}
	for _, i := range order {
		s := t.spans[i]
		lane := s.Lane
		if lane == "" {
			ends := laneEnds[s.Name]
			k := 0
			for k < len(ends) && ends[k] > s.Start {
				k++
			}
			if k == len(ends) {
				ends = append(ends, 0)
			}
			ends[k] = s.End
			laneEnds[s.Name] = ends
			lane = fmt.Sprintf("%s-%d", s.Name, k)
		}
		rec.Add(lane, s.Start.Seconds(), s.End.Seconds(), s.Name)
	}
	ct := trace.NewChromeTrace()
	ct.AddRecorder(rec)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ct.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
