package main

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

// TestMain lets the test binary stand in for the example: with
// MCPSC_TEST_MAIN set it runs main.
func TestMain(m *testing.M) {
	if os.Getenv("MCPSC_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestOutputIsDeterministic: two runs of the example print the same
// bytes, partition lines in method order included.
func TestOutputIsDeterministic(t *testing.T) {
	var outs [2][]byte
	for i := range outs {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "MCPSC_TEST_MAIN=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		outs[i] = out
	}
	if len(outs[0]) == 0 || !bytes.Equal(outs[0], outs[1]) {
		t.Errorf("two runs differ or print nothing:\n%s\n---\n%s", outs[0], outs[1])
	}
}
