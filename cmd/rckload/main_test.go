package main

import (
	"strings"
	"testing"
	"time"

	"rckalign/internal/loadgen"
)

// valid returns a flag set that passes validation; tests mutate one
// field at a time.
func valid() cliFlags {
	return cliFlags{
		Addr: "127.0.0.1:8344", Shape: "ramp", RPS: 50,
		Start: 50, Step: 50, Target: 300, Slot: 2 * time.Second,
		Duration: 10 * time.Second, Period: 4 * time.Second,
		BurstRPS: 200, BurstDur: time.Second, Amplitude: 25,
		Arrival: "uniform", K: 5, SLO: 250 * time.Millisecond, Pool: 8,
	}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name     string
		mut      func(*cliFlags)
		wantMode string
		wantErr  string // substring of the diagnostic; "" = valid
	}{
		{"ramp defaults", func(f *cliFlags) {}, "run", ""},
		{"dry run", func(f *cliFlags) { f.DryRun = true }, "dry", ""},
		{"dry run ignores addr", func(f *cliFlags) { f.DryRun = true; f.Addr = "" }, "dry", ""},
		{"empty addr", func(f *cliFlags) { f.Addr = "" }, "", "-addr"},
		{"bad shape", func(f *cliFlags) { f.Shape = "sawtooth" }, "", "-shape"},
		{"bad arrival", func(f *cliFlags) { f.Arrival = "pareto" }, "", "-arrival"},
		{"poisson ok", func(f *cliFlags) { f.Arrival = "poisson" }, "run", ""},
		{"constant", func(f *cliFlags) { f.Shape = "constant" }, "run", ""},
		{"constant zero rps", func(f *cliFlags) { f.Shape = "constant"; f.RPS = 0 }, "", "-rps"},
		{"constant zero duration", func(f *cliFlags) { f.Shape = "constant"; f.Duration = 0 }, "", "-duration"},
		{"ramp zero start", func(f *cliFlags) { f.Start = 0 }, "", "-start"},
		{"ramp target below start", func(f *cliFlags) { f.Target = 10 }, "", "-target"},
		{"ramp negative step", func(f *cliFlags) { f.Step = -1 }, "", "-step"},
		{"zero slot", func(f *cliFlags) { f.Slot = 0 }, "", "-slot"},
		{"burst", func(f *cliFlags) { f.Shape = "burst" }, "run", ""},
		{"burst zero burst rate", func(f *cliFlags) { f.Shape = "burst"; f.BurstRPS = 0 }, "", "-burst-rps"},
		{"burst zero period", func(f *cliFlags) { f.Shape = "burst"; f.Period = 0 }, "", "-period"},
		{"diurnal", func(f *cliFlags) { f.Shape = "diurnal" }, "run", ""},
		{"diurnal negative amplitude", func(f *cliFlags) { f.Shape = "diurnal"; f.Amplitude = -1 }, "", "-amplitude"},
		{"mix ok", func(f *cliFlags) { f.Mix = "score=0.5,topk=0.5" }, "run", ""},
		{"mix unknown op", func(f *cliFlags) { f.Mix = "delete=1" }, "", "unknown op"},
		{"mix bad weight", func(f *cliFlags) { f.Mix = "score=lots" }, "", "bad weight"},
		{"mix missing equals", func(f *cliFlags) { f.Mix = "score" }, "", "op=weight"},
		{"zero k", func(f *cliFlags) { f.K = 0 }, "", "-k"},
		{"zero slo", func(f *cliFlags) { f.SLO = 0 }, "", "-slo"},
		{"tiny pool", func(f *cliFlags) { f.DryRun = true; f.Pool = 1 }, "", "-pool"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := valid()
			tc.mut(&f)
			mode, err := validateFlags(f)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if mode != tc.wantMode {
					t.Fatalf("mode %q, want %q", mode, tc.wantMode)
				}
				return
			}
			if err == nil {
				t.Fatalf("no error, want one mentioning %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseMix(t *testing.T) {
	mix, err := parseMix("score=0.5, onevsall=0.3,topk=0.2")
	if err != nil {
		t.Fatal(err)
	}
	if mix[loadgen.OpScore] != 0.5 || mix[loadgen.OpOneVsAll] != 0.3 || mix[loadgen.OpTopK] != 0.2 {
		t.Errorf("mix = %v", mix)
	}
	if mix, err := parseMix(""); err != nil || mix != nil {
		t.Errorf("empty mix = %v, %v; want nil, nil", mix, err)
	}
}

func TestBuildSlotsShapes(t *testing.T) {
	f := valid()
	if got := buildSlots(f); len(got) != 6 || got[0].RPS != 50 || got[5].RPS != 300 {
		t.Errorf("ramp slots = %+v", got)
	}
	f.Shape = "constant"
	for _, sl := range buildSlots(f) {
		if sl.RPS != 50 {
			t.Errorf("constant slot at %v RPS", sl.RPS)
		}
	}
	f.Shape = "burst"
	if got := buildSlots(f); len(got) < 2 {
		t.Errorf("burst produced %d slots", len(got))
	}
	f.Shape = "diurnal"
	if got := buildSlots(f); len(got) != 5 {
		t.Errorf("diurnal produced %d slots, want 5 (10s / 2s)", len(got))
	}
}
