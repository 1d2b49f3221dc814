package trace

import (
	"strings"
	"testing"
)

func TestAddAndSpan(t *testing.T) {
	r := New()
	r.Add("c1", 1, 3, "a")
	r.Add("c2", 2, 5, "b")
	r.Add("c1", 4, 4, "ignored") // zero length
	lo, hi := r.Span()
	if lo != 1 || hi != 5 {
		t.Errorf("span = [%v, %v]", lo, hi)
	}
	if len(r.Intervals("c1")) != 1 {
		t.Errorf("c1 intervals = %v", r.Intervals("c1"))
	}
	if got := r.Tracks(); len(got) != 2 || got[0] != "c1" {
		t.Errorf("tracks = %v", got)
	}
}

func TestBusySecondsMergesOverlaps(t *testing.T) {
	var b Busy
	b.Add(0, 2)
	b.Add(1, 3) // overlaps
	b.Add(5, 6)
	if got := b.Seconds(); got != 4 {
		t.Errorf("busy = %v, want 4", got)
	}
	if (&Busy{}).Seconds() != 0 {
		t.Error("empty track busy != 0")
	}
}

func TestUtilization(t *testing.T) {
	r := New()
	r.Add("c", 0, 5, "")
	if u := r.Utilization("c", 0, 10); u != 0.5 {
		t.Errorf("utilization = %v", u)
	}
	// Clipping to the window.
	if u := r.Utilization("c", 4, 6); u != 0.5 {
		t.Errorf("clipped utilization = %v", u)
	}
	if u := r.Utilization("c", 10, 5); u != 0 {
		t.Errorf("inverted window utilization = %v", u)
	}
}

func TestUtilizationTable(t *testing.T) {
	r := New()
	r.Add("rck01", 0, 10, "compute")
	r.Add("rck02", 0, 5, "compute")
	out := r.UtilizationTable(20)
	if !strings.Contains(out, "rck01") || !strings.Contains(out, "100.0%") {
		t.Errorf("table:\n%s", out)
	}
	if !strings.Contains(out, "50.0%") {
		t.Errorf("table missing 50%%:\n%s", out)
	}
}

func TestMarks(t *testing.T) {
	r := New()
	r.AddMark("c", 3, "kill")
	r.AddMark("c", 7, "drop")
	ms := r.Marks("c")
	if len(ms) != 2 || ms[0].Label != "kill" || ms[1].T != 7 {
		t.Errorf("marks = %v", ms)
	}
	if len(r.Marks("missing")) != 0 {
		t.Error("missing track has marks")
	}
	// A mark-only recorder still has a span and creates the track.
	lo, hi := r.Span()
	if lo != 3 || hi != 7 {
		t.Errorf("span = [%v, %v], want [3, 7]", lo, hi)
	}
	if tracks := r.Tracks(); len(tracks) != 1 || tracks[0] != "c" {
		t.Errorf("tracks = %v", tracks)
	}
}
