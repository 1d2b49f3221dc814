package main

import (
	"bufio"
	"bytes"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the rckserve command: with
// RCKSERVE_TEST_MAIN set it runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("RCKSERVE_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// rckserve returns the test binary set up to run as rckserve from the
// module root.
func rckserve(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = "../.."
	cmd.Env = append(os.Environ(), "RCKSERVE_TEST_MAIN=1")
	return cmd
}

// TestExits: runs that must stop on their own, with their exit status
// and a line of stderr. Removed and bad flags are usage errors (2); a
// port already taken is an operational failure (1) reported before any
// "listening on" line, which only ever names a bound address.
func TestExits(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	for _, tc := range []struct {
		args []string
		code int
		want string // regexp of a stderr line
	}{
		{[]string{"-maxwait", "1ms"}, 2, `flag provided but not defined: -maxwait`},
		{[]string{"-queuecap", "64"}, 2, `flag provided but not defined: -queuecap`},
		{[]string{"-prune-tm", "NaN"}, 2, `^rckserve: -prune-tm NaN: must be in \[0,1\]`},
		{[]string{"-addr", busy.Addr().String()}, 1, `^rckserve: listen tcp ` + regexp.QuoteMeta(busy.Addr().String())},
	} {
		var stderr bytes.Buffer
		cmd := rckserve(tc.args...)
		cmd.Stderr = &stderr
		cmd.Run()
		out := stderr.String()
		if code := cmd.ProcessState.ExitCode(); code != tc.code || !regexp.MustCompile("(?m)"+tc.want).MatchString(out) {
			t.Errorf("rckserve %v: exit %d, printed %q; want exit %d and %q", tc.args, code, out, tc.code, tc.want)
		}
		if strings.Contains(out, "listening on") {
			t.Errorf("rckserve %v announced a listener it does not have:\n%s", tc.args, out)
		}
	}
}

// TestServeUntilInterrupt: rckserve on port 0 announces the address it
// bound, answers /healthz there, and on SIGINT drains and exits 0.
func TestServeUntilInterrupt(t *testing.T) {
	cmd := rckserve("-addr", "127.0.0.1:0", "-dataset", "CK34", "-fast")
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	lines := bufio.NewScanner(pipe)
	var log strings.Builder
	addr := ""
	for addr == "" && lines.Scan() {
		log.WriteString(lines.Text() + "\n")
		if rest, ok := strings.CutPrefix(lines.Text(), "rckserve: listening on "); ok {
			addr, _, _ = strings.Cut(rest, " ")
		}
	}
	if addr == "" {
		t.Fatalf("no \"listening on\" line:\n%s", log.String())
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("/healthz on the announced %s: %v", addr, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d", resp.StatusCode)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for lines.Scan() {
			log.WriteString(lines.Text() + "\n")
		}
		done <- cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil || !strings.Contains(log.String(), "shutting down") {
			t.Errorf("after SIGINT: %v\n%s", err, log.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("rckserve did not exit 30 s after SIGINT")
	}
}
