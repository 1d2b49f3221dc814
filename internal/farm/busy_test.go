package farm_test

import (
	"errors"
	"math"
	"sort"
	"testing"

	"rckalign/internal/core"
	"rckalign/internal/farm"
	"rckalign/internal/fault"
	"rckalign/internal/scc"
	"rckalign/internal/trace"
)

// mergedBusy is the reference for the session's busy accounting: the
// sorted sweep that turned a track's recorded intervals into busy
// seconds before the session merged them as they arrive. It sums the
// intervals clipped to the window [t0, t1] with overlaps merged: a sorted
// sweep that extends the current merged run or closes it and starts the
// next, so double-booked time counts once.
func mergedBusy(intervals []trace.Interval, t0, t1 float64) float64 {
	ivs := make([]trace.Interval, 0, len(intervals))
	for _, iv := range intervals {
		s, e := iv.Start, iv.End
		if s < t0 {
			s = t0
		}
		if e > t1 {
			e = t1
		}
		if e > s {
			ivs = append(ivs, trace.Interval{Start: s, End: e})
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

// refUtilization is the reference busy fraction of the run [0, total].
func refUtilization(ivs []trace.Interval, total float64) float64 {
	return min(mergedBusy(ivs, 0, total)/total, 1)
}

// TestBusyMatchesMergedSweep: trace.Busy, fed a track's intervals in
// order of start, gives the sweep's busy seconds and, clipped to the run,
// its utilization, bit for bit.
func TestBusyMatchesMergedSweep(t *testing.T) {
	cases := []struct {
		name  string
		ivs   []trace.Interval
		total float64
	}{
		// A plain sum of the lengths, 0.1 + 0.9, rounds to 1.0000000000000002.
		{"touching", []trace.Interval{{Start: 0.1, End: 0.2}, {Start: 0.2, End: 1.1}}, 2},
		{"overlaps", []trace.Interval{{Start: 0, End: 6}, {Start: 4, End: 10}, {Start: 5, End: 7}, {Start: 12, End: 13}}, 20},
		{"equal starts", []trace.Interval{{Start: 1, End: 2}, {Start: 1, End: 3}, {Start: 1, End: 1.5}}, 4},
		{"empty ignored", []trace.Interval{{Start: 1, End: 1}, {Start: 2, End: 3}, {Start: 5, End: 4}, {Start: 3, End: 3}}, 4},
		// A stalled slave's last span outlasts the run; only it is clipped.
		{"stalled past the makespan", []trace.Interval{{Start: 0.3, End: 0.7}, {Start: 1.1, End: 9.9}}, 2.9},
		{"last span starts after the makespan", []trace.Interval{{Start: 0.3, End: 0.7}, {Start: 3.3, End: 9.9}}, 2.9},
		{"marks only", nil, 1.3},
	}
	for _, c := range cases {
		var b trace.Busy
		for _, iv := range c.ivs {
			if !b.Add(iv.Start, iv.End) {
				t.Fatalf("%s: in-order interval %v refused", c.name, iv)
			}
		}
		if got, want := b.Seconds(), mergedBusy(c.ivs, math.Inf(-1), math.Inf(1)); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: busy %v, sweep %v", c.name, got, want)
		}
		if got, want := min(b.Before(c.total)/c.total, 1), refUtilization(c.ivs, c.total); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: utilization %v, sweep %v", c.name, got, want)
		}
	}
	var sum float64
	for _, iv := range cases[0].ivs {
		sum += iv.End - iv.Start
	}
	if sum == mergedBusy(cases[0].ivs, math.Inf(-1), math.Inf(1)) {
		t.Error("the touching case no longer tells a merge from a plain sum")
	}
}

// TestBusyRefusesOutOfOrder pins the response to an interval that starts
// before its track's open span: Busy refuses it, and a session fed one
// fails with ErrInvariant.
func TestBusyRefusesOutOfOrder(t *testing.T) {
	var b trace.Busy
	b.Add(0, 1)
	b.Add(2, 3)
	if b.Add(1.5, 4) {
		t.Error("an interval before the open span was merged")
	}
	if b.Seconds() != 2 {
		t.Errorf("a refused interval changed the busy time to %v", b.Seconds())
	}
	for _, outOfOrder := range []bool{false, true} {
		s, err := farm.New(farm.Config{Chip: scc.DefaultConfig()}, 1)
		if err != nil {
			t.Fatal(err)
		}
		act := farm.ActivityOf(s)
		_, err = s.Run(func(m *farm.Master) {
			m.P.Wait(3)
			act.Add("rck00", 1, 2, "compute")
			if outOfOrder {
				act.Add("rck00", 0, 0.5, "compute")
			}
		})
		if outOfOrder != errors.Is(err, farm.ErrInvariant) {
			t.Errorf("out of order %t: err = %v", outOfOrder, err)
		}
	}
}

// TestReportBusyMatchesRecorder: on runs with plain, stalled, killed and
// multi-chip shapes, the Report's busy and utilization columns equal the
// sweep over the configured recorder's intervals bit for bit, with one
// key per recorded track — mark-only tracks included, at zero busy.
func TestReportBusyMatchesRecorder(t *testing.T) {
	pr := ck34(t)
	plan := func(spec string) *fault.Plan {
		p, err := fault.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	runs := []struct {
		name  string
		cfg   farm.Config // Faults and Chips
		slave int
		// stalled and markOnly demand a track of that shape, so the
		// scenario keeps exercising it.
		stalled, markOnly bool
	}{
		{name: "flat-s47", slave: 47},
		{name: "stall-past-makespan", slave: 6, stalled: true,
			cfg: farm.Config{Faults: plan("seed=1;stall=3@5+5000")}},
		{name: "kill-at-start", slave: 6, markOnly: true,
			cfg: farm.Config{Faults: plan("seed=1;kill=4@0;kill=5@30")}},
		{name: "chips4-kills", slave: 12,
			cfg: farm.Config{Chips: 4, Faults: plan("seed=1;kill=12@10;kill=30@20")}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Faults, cfg.Chips = r.cfg.Faults, r.cfg.Chips
			rec := trace.New()
			cfg.Trace = rec
			res, err := core.Run(pr, r.slave, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep := res.Report
			if len(rep.CoreBusySeconds) != len(rec.Tracks()) || len(rep.CoreUtilization) != len(rec.Tracks()) {
				t.Errorf("report keys %d busy / %d utilization, recorder %d tracks", len(rep.CoreBusySeconds), len(rep.CoreUtilization), len(rec.Tracks()))
			}
			stalled, markOnly := false, false
			for _, track := range rec.Tracks() {
				ivs := rec.Intervals(track)
				busy, ok := rep.CoreBusySeconds[track]
				if want := mergedBusy(ivs, math.Inf(-1), math.Inf(1)); !ok || math.Float64bits(busy) != math.Float64bits(want) {
					t.Errorf("%s: busy %v (present %t), sweep %v", track, busy, ok, want)
				}
				u, ok := rep.CoreUtilization[track]
				if want := refUtilization(ivs, rep.TotalSeconds); !ok || math.Float64bits(u) != math.Float64bits(want) {
					t.Errorf("%s: utilization %v (present %t), sweep %v", track, u, ok, want)
				}
				stalled = stalled || busy > rep.TotalSeconds
				markOnly = markOnly || len(ivs) == 0
			}
			if stalled != r.stalled || markOnly != r.markOnly {
				t.Errorf("busy past the run %t, mark-only track %t; want %t, %t", stalled, markOnly, r.stalled, r.markOnly)
			}
		})
	}
}
