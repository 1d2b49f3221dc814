// Chrome trace-event export: the same recorder that feeds the
// utilization table can be written as Chrome's trace-event JSON and loaded
// into Perfetto (ui.perfetto.dev) or chrome://tracing for interactive
// zooming over a 48-core run — one thread track per recorded core, plus
// counter tracks for time series like the master's mailbox depth.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// CounterPoint is one sample of a counter track at simulated time T
// (seconds). It mirrors metrics.Point without importing that package,
// keeping trace dependency-free.
type CounterPoint struct {
	T float64
	V float64
}

// chromeEvent is one entry of the trace-event JSON array. Field set per
// the Trace Event Format spec: ph "X" = complete slice (with dur),
// "i" = instant, "C" = counter, "M" = metadata. Timestamps are in
// microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace accumulates trace events and writes them as one JSON
// object. Events are emitted in the order added; encoding/json sorts
// map keys and formats floats deterministically, so identical inputs
// produce byte-identical files.
type ChromeTrace struct {
	events []chromeEvent
	// tids maps track names to stable thread ids, assigned in the order
	// tracks are first added.
	tids map[string]int
}

// chromePid is the single synthetic process all tracks live under (the
// simulated chip).
const chromePid = 1

// NewChromeTrace returns an empty trace.
func NewChromeTrace() *ChromeTrace {
	return &ChromeTrace{tids: map[string]int{}}
}

const usPerSecond = 1e6

// tid returns (assigning on first use) the thread id for a track, and
// emits the thread_name metadata event the first time.
func (c *ChromeTrace) tid(track string) int {
	id, ok := c.tids[track]
	if !ok {
		id = len(c.tids) + 1
		c.tids[track] = id
		c.events = append(c.events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: chromePid, Tid: id,
			Args: map[string]any{"name": track},
		})
	}
	return id
}

// AddRecorder converts every track of the recorder: intervals become
// complete ("X") slices and marks become instant ("i") events, each on
// a thread named after its track, in the recorder's first-seen track
// order.
func (c *ChromeTrace) AddRecorder(r *Recorder) {
	for _, track := range r.Tracks() {
		id := c.tid(track)
		for _, iv := range r.Intervals(track) {
			dur := (iv.End - iv.Start) * usPerSecond
			c.events = append(c.events, chromeEvent{
				Name: iv.Label, Ph: "X", Ts: iv.Start * usPerSecond, Dur: &dur,
				Pid: chromePid, Tid: id,
			})
		}
		for _, m := range r.Marks(track) {
			c.events = append(c.events, chromeEvent{
				Name: m.Label, Ph: "i", Ts: m.T * usPerSecond,
				Pid: chromePid, Tid: id, S: "t",
			})
		}
	}
}

// AddCounter adds a counter track (rendered by Perfetto as a stepped
// area chart) from a time series.
func (c *ChromeTrace) AddCounter(name string, points []CounterPoint) {
	for _, p := range points {
		c.events = append(c.events, chromeEvent{
			Name: name, Ph: "C", Ts: p.T * usPerSecond, Pid: chromePid,
			Args: map[string]any{"value": p.V},
		})
	}
}

// Events returns the number of accumulated events.
func (c *ChromeTrace) Events() int { return len(c.events) }

// Write writes the trace as a JSON object with a traceEvents array,
// terminated by a newline.
func (c *ChromeTrace) Write(w io.Writer) error {
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: c.events, DisplayTimeUnit: "ms"}
	if doc.TraceEvents == nil {
		doc.TraceEvents = []chromeEvent{}
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("trace: marshal chrome trace: %w", err)
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}
