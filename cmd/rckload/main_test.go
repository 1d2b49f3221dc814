package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// valid returns a flag set that passes validation; tests mutate one
// field at a time.
func valid() cliFlags {
	return cliFlags{
		Addr: "127.0.0.1:8344", Start: 50, Step: 50, Target: 300,
		Slot: 2 * time.Second, Arrival: "uniform", K: 5,
		SLO: 250 * time.Millisecond,
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
		{"start NaN", func(f *cliFlags) { f.Start = math.NaN() }, "", "-start NaN: must be a finite rate"},
		{"step NaN", func(f *cliFlags) { f.Step = math.NaN() }, "", "-step NaN: must be a finite rate"},
		{"target NaN", func(f *cliFlags) { f.Target = math.NaN() }, "", "-target NaN: must be a finite rate"},
		{"target infinite", func(f *cliFlags) { f.Target = math.Inf(1) }, "", "-target +Inf: must be a finite rate"},
		{"dry run start NaN", func(f *cliFlags) { f.DryRun = true; f.Start = math.NaN() }, "", "-start NaN"},
		{"ramp tiny step", func(f *cliFlags) { f.Step = 1e-9 }, "", "the ramp exceeds 10000 slots"},
		{"ramp step lost to rounding", func(f *cliFlags) { f.Start, f.Step, f.Target = 1e16, 1, 1e16+2 }, "", "the ramp exceeds"},
		{"ramp huge target", func(f *cliFlags) { f.Target = 1e12 }, "", "the ramp exceeds"},
		{"ramp huge start", func(f *cliFlags) { f.Start, f.Step, f.Target = 1e8, 0, 1e8 }, "", "10000000 requests"},
		{"ramp at the slot bound", func(f *cliFlags) { f.Start, f.Step, f.Target, f.Slot = 1, 1, 10_000, time.Millisecond }, "run", ""},
		{"ramp one slot past the bound", func(f *cliFlags) { f.Start, f.Step, f.Target, f.Slot = 1, 1, 10_001, time.Millisecond }, "", "10000 slots"},
		{"constant ignores a huge target", func(f *cliFlags) { f.Step, f.Target = 0, 1e300 }, "run", ""},
		{"zero k", func(f *cliFlags) { f.K = 0 }, "", "-k"},
		{"zero slo", func(f *cliFlags) { f.SLO = 0 }, "", "-slo"},
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
