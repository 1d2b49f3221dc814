package trace

import "testing"

func TestAddAndTracks(t *testing.T) {
	r := New()
	r.Add("c1", 1, 3, "a")
	r.Add("c2", 2, 5, "b")
	r.Add("c1", 4, 4, "ignored") // zero length
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
	// A mark creates its track.
	if tracks := r.Tracks(); len(tracks) != 1 || tracks[0] != "c" {
		t.Errorf("tracks = %v", tracks)
	}
}
