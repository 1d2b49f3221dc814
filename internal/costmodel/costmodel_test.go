package costmodel

import (
	"strings"
	"testing"
)

func TestNilCounterSafe(t *testing.T) {
	var c *Counter
	c.AddDP(10)
	c.AddKabsch(5)
	c.AddScore(3)
	c.AddRotate(2)
	c.AddSS(1)
	c.Add(Counter{DPCells: 1})
	// Reaching here without panic is the assertion.
}

func TestCounterAccumulation(t *testing.T) {
	var c Counter
	c.AddDP(100)
	c.AddDP(50)
	c.AddKabsch(20)
	c.AddKabsch(30)
	c.AddScore(7)
	c.AddRotate(8)
	c.AddSS(9)
	c.Add(Counter{ResiduesLoaded: 10})
	if c.DPCells != 150 {
		t.Errorf("DPCells = %d", c.DPCells)
	}
	if c.KabschCalls != 2 || c.KabschPoints != 50 {
		t.Errorf("Kabsch = %d calls / %d pts", c.KabschCalls, c.KabschPoints)
	}
	if c.ScoreEvals != 7 || c.RotationOps != 8 || c.SSAssign != 9 || c.ResiduesLoaded != 10 {
		t.Errorf("other counts wrong: %+v", c)
	}
}

func TestCounterAdd(t *testing.T) {
	a := Counter{DPCells: 1, KabschCalls: 2, KabschPoints: 3, ScoreEvals: 4, RotationOps: 5, SSAssign: 6, ResiduesLoaded: 7}
	b := a
	a.Add(b)
	if a.DPCells != 2 || a.ResiduesLoaded != 14 || a.ScoreEvals != 8 {
		t.Errorf("Add wrong: %+v", a)
	}
}

func TestCyclesLinear(t *testing.T) {
	cpu := P54C()
	c1 := Counter{DPCells: 1000}
	c2 := Counter{DPCells: 2000}
	if 2*cpu.Cycles(c1) != cpu.Cycles(c2) {
		t.Error("Cycles must be linear in counts")
	}
	if cpu.Cycles(Counter{}) != 0 {
		t.Error("empty counter must cost 0 cycles")
	}
}

func TestSecondsUsesFrequency(t *testing.T) {
	p := P54C()
	a := AMD24()
	c := Counter{DPCells: 1_000_000}
	sp := p.Seconds(c)
	sa := a.Seconds(c)
	if sp <= sa {
		t.Errorf("P54C (%v s) must be slower than AMD (%v s)", sp, sa)
	}
	// Ratio should be a few-fold, in the Table III ballpark (3.9-5.0x).
	ratio := sp / sa
	if ratio < 2 || ratio > 10 {
		t.Errorf("P54C/AMD ratio = %v, expected a few-fold", ratio)
	}
}

func TestProfilesSane(t *testing.T) {
	for _, cpu := range []CPU{P54C(), AMD24()} {
		if cpu.FreqHz <= 0 || cpu.Scale <= 0 {
			t.Errorf("%s: non-positive frequency or scale", cpu.Name)
		}
		if cpu.CyclesPerDPCell <= 0 {
			t.Errorf("%s: DP cells must cost cycles", cpu.Name)
		}
	}
	if P54C().Name == AMD24().Name {
		t.Error("profiles must be distinguishable")
	}
}

func TestCounterString(t *testing.T) {
	c := Counter{DPCells: 42}
	if !strings.Contains(c.String(), "dp=42") {
		t.Errorf("String = %q", c.String())
	}
}
