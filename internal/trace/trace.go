// Package trace records per-core activity intervals from a simulated
// execution, merges them into busy time and renders them as a Chrome /
// Perfetto trace — the instrumentation behind the "almost linear
// speedup" analysis: it shows directly whether slave cores sit idle
// waiting for the master.
package trace

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

// Sink receives a run's activity by track: a Recorder keeps all of it,
// other sinks only what they account for.
type Sink interface {
	Add(track string, start, end float64, label string)
	AddMark(track string, t float64, label string)
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

// Busy is a track's busy time merged as its intervals arrive: the closed
// runs' sum and the open run, which an interval starting within it
// (touching included) extends and one starting after it closes. Fed in
// order of start, it sums the runs of a sorted sweep over the whole
// track in the sweep's order, bit for bit. The zero value is ready.
type Busy struct {
	sum        float64 // the closed runs
	start, end float64 // the open run; both 0 until there is one
}

// Add merges [start, end]; an interval with end <= start is ignored. It
// returns false, adding nothing, for one that starts before the open run:
// merged out of order it could bridge closed runs, so the sum would no
// longer be the sweep's.
func (b *Busy) Add(start, end float64) bool {
	switch {
	case end <= start:
	case b.end <= b.start: // no open run yet
		b.start, b.end = start, end
	case start < b.start:
		return false
	case start > b.end:
		b.sum += b.end - b.start
		b.start, b.end = start, end
	case end > b.end:
		b.end = end
	}
	return true
}

// Seconds returns the busy time.
func (b *Busy) Seconds() float64 { return b.sum + (b.end - b.start) }

// Before returns the busy time clipped to (-Inf, t] as a sweep over the
// clipped intervals sums it, provided only the open run reaches past t.
func (b *Busy) Before(t float64) float64 {
	if b.start >= t {
		return b.sum
	}
	return b.sum + (min(b.end, t) - b.start)
}
