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
		Addr: "127.0.0.1:8344", Start: 50, Step: 50, Target: 300,
		Slot: 2 * time.Second, Arrival: "uniform", K: 5,
		SLO: 250 * time.Millisecond, Pool: 8,
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
		{"bad arrival", func(f *cliFlags) { f.Arrival = "pareto" }, "", "-arrival"},
		{"poisson ok", func(f *cliFlags) { f.Arrival = "poisson" }, "run", ""},
		{"constant", func(f *cliFlags) { f.Step = 0 }, "run", ""},
		{"ramp zero start", func(f *cliFlags) { f.Start = 0 }, "", "-start"},
		{"ramp target below start", func(f *cliFlags) { f.Target = 10 }, "", "-target"},
		{"ramp negative step", func(f *cliFlags) { f.Step = -1 }, "", "-step"},
		{"zero slot", func(f *cliFlags) { f.Slot = 0 }, "", "-slot"},
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
