package tmscore

import (
	"errors"
	"math/rand"
	"testing"

	"rckalign/internal/costmodel"
	"rckalign/internal/geom"
)

func TestGDTPerfectModel(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	x := randomTrace(rng, 60)
	g := geom.Transform{R: geom.RotY(0.7), T: geom.V(3, -2, 9)}
	y := make([]geom.Vec3, len(x))
	g.ApplyAll(y, x)
	gdt := GDTScores(x, y, nil)
	if gdt.TS() < 0.999 || gdt.HA() < 0.999 {
		t.Errorf("perfect model: GDT-TS=%v GDT-HA=%v", gdt.TS(), gdt.HA())
	}
	if MaxSub(x, y, nil) < 0.95 {
		t.Errorf("perfect model MaxSub = %v", MaxSub(x, y, nil))
	}
}

func TestGDTOrderingOfCutoffs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x := randomTrace(rng, 80)
	y := make([]geom.Vec3, len(x))
	for i := range x {
		y[i] = x[i].Add(geom.V(rng.NormFloat64()*1.5, rng.NormFloat64()*1.5, rng.NormFloat64()*1.5))
	}
	g := GDTScores(x, y, nil)
	if !(g.P05 <= g.P1+1e-9 && g.P1 <= g.P2+1e-9 && g.P2 <= g.P4+1e-9 && g.P4 <= g.P8+1e-9) {
		t.Errorf("cutoff fractions not monotone: %+v", g)
	}
	for _, f := range []float64{g.P05, g.P1, g.P2, g.P4, g.P8} {
		if f < 0 || f > 1 {
			t.Errorf("fraction out of range: %+v", g)
		}
	}
	if g.HA() > g.TS()+1e-9 {
		t.Errorf("GDT-HA (%v) cannot exceed GDT-TS (%v)", g.HA(), g.TS())
	}
}

func TestGDTPartialModel(t *testing.T) {
	// Half the model perfect, half displaced far: TS ~ 0.5.
	rng := rand.New(rand.NewSource(32))
	x := randomTrace(rng, 100)
	y := make([]geom.Vec3, len(x))
	copy(y, x)
	for i := 50; i < 100; i++ {
		y[i] = y[i].Add(geom.V(50+rng.Float64()*20, 50, 50))
	}
	g := GDTScores(x, y, nil)
	if g.TS() < 0.4 || g.TS() > 0.65 {
		t.Errorf("half-good model GDT-TS = %v, want ~0.5", g.TS())
	}
	ms := MaxSub(x, y, nil)
	if ms < 0.35 || ms > 0.65 {
		t.Errorf("half-good model MaxSub = %v, want ~0.5", ms)
	}
}

func TestGDTRandomModelLow(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	x := randomTrace(rng, 80)
	y := randomTrace(rng, 80)
	g := GDTScores(x, y, nil)
	if g.TS() > 0.5 {
		t.Errorf("random model GDT-TS = %v, suspiciously high", g.TS())
	}
	if MaxSub(x, y, nil) > 0.4 {
		t.Errorf("random model MaxSub = %v", MaxSub(x, y, nil))
	}
}

func TestMetricsPanicOnMismatch(t *testing.T) {
	defer func() {
		rec := recover()
		err, ok := rec.(error)
		if !ok || !errors.Is(err, ErrAlignedLength) {
			t.Errorf("panic value %v does not wrap ErrAlignedLength", rec)
		}
	}()
	GDTScores(make([]geom.Vec3, 3), make([]geom.Vec3, 4), nil)
}

func TestMetricsChargeOps(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	x := randomTrace(rng, 40)
	y := randomTrace(rng, 40)
	var ops costmodel.Counter
	GDTScores(x, y, &ops)
	MaxSub(x, y, &ops)
	if ops.KabschCalls == 0 || ops.ScoreEvals == 0 {
		t.Errorf("metrics charged no ops: %+v", ops)
	}
}

func TestEmptyInputs(t *testing.T) {
	if MaxSub(nil, nil, nil) != 0 {
		t.Error("MaxSub(nil)")
	}
	g := GDTScores(nil, nil, nil)
	if g.TS() != 0 {
		t.Error("GDT(nil)")
	}
}
