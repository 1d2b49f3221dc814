package trace

import (
	"strings"
	"testing"
)

// TestUtilizationMergesOverlaps pins the merged-sweep semantics: time
// covered by two overlapping intervals counts once, so a double-booked
// track cannot report more busy time than wall time.
func TestUtilizationMergesOverlaps(t *testing.T) {
	r := New()
	r.Add("m", 0, 6, "a")
	r.Add("m", 4, 10, "b")
	if got := r.Utilization("m", 0, 20); got != 0.5 {
		t.Errorf("overlapping utilization = %v, want 0.5 (merged 10s / 20s window)", got)
	}
	if got := r.BusySeconds("m"); got != 10 {
		t.Errorf("busy = %v, want 10", got)
	}
	// Clipping: only [5, 10] of the merged run falls in the window.
	if got := r.Utilization("m", 5, 15); got != 0.5 {
		t.Errorf("clipped utilization = %v, want 0.5", got)
	}
}

// TestSpanMarksOnly: a recorder holding only instantaneous marks still
// reports a span covering them.
func TestSpanMarksOnly(t *testing.T) {
	r := New()
	r.AddMark("rck01", 2.5, "kill")
	r.AddMark("rck02", 7.25, "stall")
	lo, hi := r.Span()
	if lo != 2.5 || hi != 7.25 {
		t.Errorf("marks-only span = (%v, %v), want (2.5, 7.25)", lo, hi)
	}
}

// TestSingleMarkGantt: one instantaneous mark gives a zero-width span;
// the utilization chart (rckalign -util) must degrade gracefully instead
// of dividing by zero.
func TestSingleMarkGantt(t *testing.T) {
	r := New()
	r.AddMark("rck01", 3, "kill")
	if got := r.UtilizationTable(40); !strings.Contains(got, "rck01") || !strings.Contains(got, "  0.0% |") {
		t.Errorf("single-mark utilization table = %q", got)
	}
	if got := r.Utilization("rck01", 3, 3); got != 0 {
		t.Errorf("zero-window utilization = %v", got)
	}
}

// TestNameColumnWidth: track names longer than the historical 10-char
// column widen the column for every row, keeping output aligned.
func TestNameColumnWidth(t *testing.T) {
	r := New()
	r.Add("rck00", 0, 1, "compute")
	r.Add("a-very-long-track-name", 0, 2, "compute")
	for _, out := range []string{r.UtilizationTable(20)} {
		lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
		var rows []string
		for _, l := range lines {
			if strings.HasPrefix(l, "rck00") || strings.HasPrefix(l, "a-very-long") {
				rows = append(rows, l)
			}
		}
		if len(rows) != 2 {
			t.Fatalf("expected 2 track rows, got %d in:\n%s", len(rows), out)
		}
		if len(rows[0]) != len(rows[1]) {
			t.Errorf("rows not aligned:\n%q\n%q", rows[0], rows[1])
		}
		if !strings.HasPrefix(rows[1], "a-very-long-track-name ") {
			t.Errorf("long name truncated: %q", rows[1])
		}
	}
}
