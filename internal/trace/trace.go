// Package trace records per-core activity intervals from a simulated
// execution and renders them as utilization summaries or a Chrome /
// Perfetto trace — the instrumentation behind the "almost linear
// speedup" analysis: it shows directly whether slave cores sit idle
// waiting for the master.
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Interval is one span of activity on a track.
type Interval struct {
	Start, End float64
	Label      string
}

// Mark is an instantaneous event on a track (a fault injection, a
// checkpoint), exported as an instant event on the track.
type Mark struct {
	T     float64
	Label string
}

// Recorder accumulates intervals by track (typically one track per
// core). The zero value is not ready; use New.
type Recorder struct {
	tracks map[string][]Interval
	marks  map[string][]Mark
	order  []string
}

// New returns an empty recorder.
func New() *Recorder {
	return &Recorder{tracks: map[string][]Interval{}, marks: map[string][]Mark{}}
}

func (r *Recorder) ensureTrack(track string) {
	if _, ok := r.tracks[track]; !ok {
		r.tracks[track] = nil
		r.order = append(r.order, track)
	}
}

// Add appends an interval to a track. Intervals with End <= Start are
// ignored.
func (r *Recorder) Add(track string, start, end float64, label string) {
	if end <= start {
		return
	}
	r.ensureTrack(track)
	r.tracks[track] = append(r.tracks[track], Interval{Start: start, End: end, Label: label})
}

// AddMark records an instantaneous event on a track (e.g. "kill",
// "drop"); fault injections use it so failures show up visually in
// the exported trace.
func (r *Recorder) AddMark(track string, t float64, label string) {
	r.ensureTrack(track)
	r.marks[track] = append(r.marks[track], Mark{T: t, Label: label})
}

// Tracks returns the track names in first-seen order.
func (r *Recorder) Tracks() []string { return append([]string(nil), r.order...) }

// Intervals returns a track's recorded intervals.
func (r *Recorder) Intervals(track string) []Interval {
	return append([]Interval(nil), r.tracks[track]...)
}

// Marks returns a track's recorded point events.
func (r *Recorder) Marks(track string) []Mark {
	return append([]Mark(nil), r.marks[track]...)
}

// Span returns the [min start, max end] across all tracks' intervals
// and marks (0,0 when empty).
func (r *Recorder) Span() (float64, float64) {
	first := true
	var lo, hi float64
	for _, ivs := range r.tracks {
		for _, iv := range ivs {
			if first || iv.Start < lo {
				lo = iv.Start
			}
			if first || iv.End > hi {
				hi = iv.End
			}
			first = false
		}
	}
	for _, ms := range r.marks {
		for _, m := range ms {
			if first || m.T < lo {
				lo = m.T
			}
			if first || m.T > hi {
				hi = m.T
			}
			first = false
		}
	}
	return lo, hi
}

// mergedBusy sums the intervals clipped to the window [t0, t1] with
// overlaps merged: a sorted sweep that extends the current merged run or
// closes it and starts the next, so double-booked time counts once.
func mergedBusy(intervals []Interval, t0, t1 float64) float64 {
	ivs := make([]Interval, 0, len(intervals))
	for _, iv := range intervals {
		s, e := iv.Start, iv.End
		if s < t0 {
			s = t0
		}
		if e > t1 {
			e = t1
		}
		if e > s {
			ivs = append(ivs, Interval{Start: s, End: e})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].Start < ivs[b].Start })
	var busy, curStart, curEnd float64
	started := false
	for _, iv := range ivs {
		if !started || iv.Start > curEnd {
			if started {
				busy += curEnd - curStart
			}
			curStart, curEnd = iv.Start, iv.End
			started = true
		} else if iv.End > curEnd {
			curEnd = iv.End
		}
	}
	if started {
		busy += curEnd - curStart
	}
	return busy
}

// BusySeconds returns a track's total busy time (overlaps merged).
func (r *Recorder) BusySeconds(track string) float64 {
	return mergedBusy(r.tracks[track], math.Inf(-1), math.Inf(1))
}

// Utilization returns a track's busy fraction of the window [t0, t1],
// with overlapping intervals merged so the fraction never exceeds 1 by
// double-counting the same span.
func (r *Recorder) Utilization(track string, t0, t1 float64) float64 {
	if t1 <= t0 {
		return 0
	}
	u := mergedBusy(r.tracks[track], t0, t1) / (t1 - t0)
	if u > 1 {
		u = 1
	}
	return u
}

// nameWidth returns the track-name column width: the longest recorded
// track name, at least 10 so short names keep the historical layout.
func (r *Recorder) nameWidth() int {
	w := 10
	for _, track := range r.order {
		if len(track) > w {
			w = len(track)
		}
	}
	return w
}

// UtilizationTable renders per-track utilization over the full span as
// aligned text with a bar.
func (r *Recorder) UtilizationTable(width int) string {
	if width < 10 {
		width = 10
	}
	t0, t1 := r.Span()
	nw := r.nameWidth()
	var b strings.Builder
	fmt.Fprintf(&b, "window: %.3f .. %.3f s\n", t0, t1)
	for _, track := range r.order {
		u := r.Utilization(track, t0, t1)
		n := int(u*float64(width) + 0.5)
		fmt.Fprintf(&b, "%-*s %5.1f%% |%s%s|\n", nw, track, 100*u,
			strings.Repeat("#", n), strings.Repeat(" ", width-n))
	}
	return b.String()
}
