package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"rckalign/internal/pdb"
	"rckalign/internal/synth"
)

// TestMain lets the test binary stand in for the tmalign command: with
// TMALIGN_TEST_MAIN set it runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("TMALIGN_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// run executes the command with args and returns its stdout, stderr and
// exit status.
func run(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TMALIGN_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	}
	t.Fatalf("tmalign %v: %v", args, err)
	return "", "", 0
}

// writePDB writes the CK34 chain i to dir/name, with edit applied to
// the PDB text first.
func writePDB(t *testing.T, dir, name string, i int, edit func(lines []string) []string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := pdb.Write(&buf, synth.CK34().Structures[i]); err != nil {
		t.Fatal(err)
	}
	lines := edit(strings.SplitAfter(buf.String(), "\n"))
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDegenerateChainsExitOne: the chains rckserve rejects at upload are
// errors here too — exit status 1, the cause named, no score printed.
func TestDegenerateChainsExitOne(t *testing.T) {
	dir := t.TempDir()
	keep := func(lines []string) []string { return lines }
	good := writePDB(t, dir, "good.pdb", 1, keep)
	bad := map[string]string{
		"two residues": writePDB(t, dir, "short.pdb", 0, func(lines []string) []string {
			var out []string
			for _, l := range lines {
				if strings.HasPrefix(l, "ATOM") && len(out) == 2 {
					continue
				}
				out = append(out, l)
			}
			return out
		}),
	}
	for _, x := range []string{"NaN", "+Inf", "-Inf", "1e300"} {
		bad["x="+x] = writePDB(t, dir, "x"+x+".pdb", 0, func(lines []string) []string {
			lines[3] = lines[3][:30] + fmt.Sprintf("%8s", x) + lines[3][38:]
			return lines
		})
	}
	for name, path := range bad {
		for _, args := range [][]string{{path, good}, {good, path}} {
			stdout, stderr, code := run(t, args...)
			if code != 1 {
				t.Errorf("%s %v: exit %d, want 1", name, args, code)
			}
			if !strings.Contains(stderr, "tmalign: tmalign: degenerate structure: ") {
				t.Errorf("%s: stderr %q does not name the degenerate structure", name, stderr)
			}
			if strings.Contains(stdout, "TM-score=") {
				t.Errorf("%s: printed a score:\n%s", name, stdout)
			}
		}
	}
	if stdout, stderr, code := run(t, good, good); code != 0 || !strings.Contains(stdout, "TM-score= 1.00000") {
		t.Errorf("valid self-comparison: exit %d, stderr %q, stdout:\n%s", code, stderr, stdout)
	}
}

// TestDemoStillScores: -demo's two built-in chains pass the check and
// print the report.
func TestDemoStillScores(t *testing.T) {
	stdout, stderr, code := run(t, "-demo")
	if code != 0 || !strings.Contains(stdout, "TM-score= ") || stderr != "" {
		t.Errorf("-demo: exit %d, stderr %q, stdout:\n%s", code, stderr, stdout)
	}
}
