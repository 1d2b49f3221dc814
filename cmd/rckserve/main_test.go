package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rckalign/internal/server"
)

// valid returns a flag set that passes validation; tests mutate one
// field at a time.
func valid() cliFlags {
	return cliFlags{Addr: "127.0.0.1:8344"}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		mut     func(*cliFlags)
		wantErr string // substring of the one-line diagnostic; "" = valid
	}{
		{"defaults", func(f *cliFlags) {}, ""},
		{"empty addr", func(f *cliFlags) { f.Addr = "" }, "-addr"},
		{"dataset CK34", func(f *cliFlags) { f.Dataset = "CK34" }, ""},
		{"dataset RS119", func(f *cliFlags) { f.Dataset = "RS119" }, ""},
		{"dataset unknown", func(f *cliFlags) { f.Dataset = "PDB70" }, "PDB70"},
		{"batch default sentinel", func(f *cliFlags) { f.Batch = 0 }, ""},
		{"batch one disables coalescing", func(f *cliFlags) { f.Batch = 1 }, ""},
		{"batch negative", func(f *cliFlags) { f.Batch = -1 }, "-batch"},
		{"maxwait default sentinel", func(f *cliFlags) { f.MaxWait = 0 }, ""},
		{"maxwait negative", func(f *cliFlags) { f.MaxWait = -time.Millisecond }, "-maxwait"},
		{"workers negative", func(f *cliFlags) { f.Workers = -2 }, "-workers"},
		{"queuecap negative", func(f *cliFlags) { f.QueueCap = -1 }, "-queuecap"},
		{"debug-addr off", func(f *cliFlags) { f.DebugAddr = "" }, ""},
		{"debug-addr own listener", func(f *cliFlags) { f.DebugAddr = "127.0.0.1:6060" }, ""},
		{"debug-addr on the public address", func(f *cliFlags) { f.DebugAddr = f.Addr }, "-debug-addr"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := valid()
			tc.mut(&f)
			err := validateFlags(f)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
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

// TestDebugHandlerIsSeparateFromPublicMux: -debug-addr's handler serves
// the pprof index and profiles; the service's own handler never does.
func TestDebugHandlerIsSeparateFromPublicMux(t *testing.T) {
	get := func(h http.Handler, path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}
	dbg := debugHandler()
	if w := get(dbg, "/debug/pprof/"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "goroutine") {
		t.Errorf("pprof index = %d: %.200s", w.Code, w.Body.String())
	}
	if w := get(dbg, "/debug/pprof/heap"); w.Code != http.StatusOK || w.Body.Len() == 0 {
		t.Errorf("heap profile = %d, %d bytes", w.Code, w.Body.Len())
	}
	if w := get(dbg, "/healthz"); w.Code != http.StatusNotFound {
		t.Errorf("debug listener serves the service API: /healthz = %d", w.Code)
	}

	srv := server.New(server.Config{})
	defer srv.Close()
	if w := get(srv.Handler(), "/debug/pprof/"); w.Code != http.StatusNotFound {
		t.Errorf("public mux serves pprof: /debug/pprof/ = %d", w.Code)
	}
}
