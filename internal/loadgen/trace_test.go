package loadgen

import (
	"bytes"
	"math"
	"testing"
	"time"
)

func TestRampShape(t *testing.T) {
	slots := Ramp(10, 10, 50, 2*time.Second)
	if len(slots) != 5 {
		t.Fatalf("ramp 10..50 step 10: %d slots, want 5", len(slots))
	}
	for i, sl := range slots {
		want := float64(10 * (i + 1))
		if sl.RPS != want || sl.Dur != 2*time.Second {
			t.Errorf("slot %d = %+v, want RPS %v dur 2s", i, sl, want)
		}
	}
	// Step overshooting the target clamps the last slot to the target.
	slots = Ramp(10, 15, 30, time.Second)
	rates := []float64{10, 25, 30}
	if len(slots) != len(rates) {
		t.Fatalf("clamped ramp: %d slots, want %d", len(slots), len(rates))
	}
	for i, want := range rates {
		if slots[i].RPS != want {
			t.Errorf("clamped ramp slot %d RPS = %v, want %v", i, slots[i].RPS, want)
		}
	}
	// Non-positive step degenerates to the single start slot.
	if got := Ramp(20, 0, 100, time.Second); len(got) != 1 || got[0].RPS != 20 {
		t.Errorf("zero-step ramp = %+v, want single 20-RPS slot", got)
	}
}

// TestRampSizeMatchesRamp: RampSize counts exactly the slots and
// requests Ramp builds, and stops just past its cap on a ramp that
// would not end.
func TestRampSizeMatchesRamp(t *testing.T) {
	for _, r := range [][3]float64{{10, 10, 50}, {10, 15, 30}, {20, 0, 100}, {0.1, 0.7, 9.3}, {500, 500, 6000}} {
		slots := Ramp(r[0], r[1], r[2], 1500*time.Millisecond)
		want := 0.0
		for _, sl := range slots {
			want += sl.RPS * sl.Dur.Seconds()
		}
		n, requests := RampSize(r[0], r[1], r[2], 1500*time.Millisecond, 100)
		if n != len(slots) || requests != want {
			t.Errorf("RampSize%v = %d slots, %v requests; Ramp built %d, %v", r, n, requests, len(slots), want)
		}
	}
	if n, _ := RampSize(1e16, 1, 1e16+2, time.Second, 100); n != 101 {
		t.Errorf("a step lost to rounding: RampSize stopped at %d slots, want the cap + 1", n)
	}
}

func TestSynthesizeDeterministicAndOrdered(t *testing.T) {
	spec := SynthSpec{Seed: 42, Slots: Ramp(20, 20, 60, time.Second), Poisson: true}
	a1, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := Synthesize(spec)
	if len(a1) == 0 {
		t.Fatal("empty schedule")
	}
	if len(a1) != len(a2) {
		t.Fatalf("same seed, different lengths: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a1[i], a2[i])
		}
	}
	for i := 1; i < len(a1); i++ {
		if a1[i].At < a1[i-1].At {
			t.Fatalf("arrivals not ordered at %d: %v < %v", i, a1[i].At, a1[i-1].At)
		}
	}
	spec.Seed = 43
	a3, _ := Synthesize(spec)
	same := len(a3) == len(a1)
	if same {
		for i := range a1 {
			if a1[i] != a3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical Poisson schedules")
	}
}

func TestSynthesizeUniformCountsAndMix(t *testing.T) {
	spec := SynthSpec{
		Seed:  7,
		Slots: []Slot{{RPS: 100, Dur: 10 * time.Second}},
	}
	arr, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(arr) != 1000 {
		t.Fatalf("uniform 100 RPS x 10s = %d arrivals, want 1000", len(arr))
	}
	counts := map[Op]int{}
	for _, a := range arr {
		counts[a.Op]++
	}
	for i, op := range mixOrder {
		if frac := float64(counts[op]) / float64(len(arr)); counts[op] == 0 || math.Abs(frac-mixWeights[i]) > 0.03 {
			t.Errorf("%s fraction %.3f, want ~%.2f", op, frac, mixWeights[i])
		}
	}
}

func TestSynthesizeValidation(t *testing.T) {
	if _, err := Synthesize(SynthSpec{}); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := Synthesize(SynthSpec{Slots: []Slot{{RPS: -1, Dur: time.Second}}}); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := Synthesize(SynthSpec{Slots: []Slot{{RPS: 1, Dur: 0}}}); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestBuildRequestsDeterministicSchedule(t *testing.T) {
	arr, err := Synthesize(SynthSpec{Seed: 5, Slots: Ramp(10, 10, 30, time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"a", "b", "c", "d"}
	r1, err := BuildRequests(arr, ids, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := BuildRequests(arr, ids, 5, 3)
	var b1, b2 bytes.Buffer
	if err := WriteSchedule(&b1, r1); err != nil {
		t.Fatal(err)
	}
	if err := WriteSchedule(&b2, r2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("same seed produced different schedule dumps")
	}
	for i, r := range r1 {
		if r.ReqID == "" || r.Path == "" || r.Method == "" {
			t.Fatalf("request %d incomplete: %+v", i, r)
		}
	}
	// score requests must name two distinct structures.
	for _, r := range r1 {
		if r.Op == OpScore {
			if r.Path[:7] != "/score?" {
				t.Fatalf("score path %q", r.Path)
			}
		}
	}
	if _, err := BuildRequests(arr, []string{"only"}, 5, 3); err == nil {
		t.Error("single-structure pool accepted")
	}
}
