package main

import (
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"testing"
)

// TestMain lets the test binary stand in for the benchtables command:
// with BENCHTABLES_TEST_MAIN set it runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("BENCHTABLES_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestRunArtifacts: run from the module root with the committed pair
// cache, benchtables prints EXPERIMENTS.md's tables byte for byte as
// internal/experiments/testdata/experiments.golden.txt on one host core
// (TestExperimentsGolden computes them in process at the host's
// GOMAXPROCS), and removed flags and unknown names are usage errors.
func TestRunArtifacts(t *testing.T) {
	golden, err := os.ReadFile("../../internal/experiments/testdata/experiments.golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		env    string // GOMAXPROCS of the run, "" = inherited
		args   []string
		code   int
		stderr string // regexp of a stderr line; "" = stdout is the golden
	}{
		{"GOMAXPROCS=1", nil, 0, ""}, // TestExperimentsGolden runs at the host's GOMAXPROCS
		{"", []string{"-table", "2"}, 2, `flag provided but not defined: -table`},
		{"", []string{"-ablations"}, 2, `flag provided but not defined: -ablations`},
		{"", []string{"-only", "tabel2"}, 2, `^benchtables: unknown experiment "tabel2" \(have table1, `},
	} {
		if tc.stderr == "" && testing.Short() {
			continue // like TestExperimentsGolden, the full run is not short
		}
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Dir = "../.."
		cmd.Env = append(os.Environ(), "BENCHTABLES_TEST_MAIN=1")
		if tc.env != "" {
			cmd.Env = append(cmd.Env, tc.env)
		}
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil && cmd.ProcessState == nil {
			t.Fatal(err)
		}
		if code := cmd.ProcessState.ExitCode(); code != tc.code {
			t.Errorf("%s benchtables %v: exit %d, want %d\n%s", tc.env, tc.args, code, tc.code, stderr.String())
		}
		if tc.stderr == "" && !bytes.Equal(stdout.Bytes(), golden) {
			t.Errorf("%s benchtables differs from experiments.golden.txt", tc.env)
		}
		if tc.stderr != "" && !regexp.MustCompile("(?m)"+tc.stderr).Match(stderr.Bytes()) {
			t.Errorf("benchtables %v printed %q, want %q", tc.args, stderr.String(), tc.stderr)
		}
	}
}
