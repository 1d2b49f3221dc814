package main

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
)

// valid returns a flag set that passes validation with the given
// operation selected; tests mutate one field at a time.
func valid() cliFlags {
	return cliFlags{Addr: "127.0.0.1:8344", Stats: true, Burst: 1, Conc: 4, K: 5}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		mut     func(*cliFlags)
		wantOp  string
		wantErr string // substring of the one-line diagnostic; "" = valid
	}{
		{"stats", func(f *cliFlags) {}, "stats", ""},
		{"empty addr", func(f *cliFlags) { f.Addr = "" }, "", "-addr"},
		{"no operation", func(f *cliFlags) { f.Stats = false }, "", "no operation"},
		{"two operations", func(f *cliFlags) { f.Dump = "out.txt" }, "", "one operation"},
		{"upload", func(f *cliFlags) { f.Stats = false; f.Upload = 8 }, "upload", ""},
		{"upload negative", func(f *cliFlags) { f.Stats = false; f.Upload = -1 }, "", "-upload"},
		{"score", func(f *cliFlags) { f.Stats = false; f.Score = "a,b" }, "score", ""},
		{"score one id", func(f *cliFlags) { f.Stats = false; f.Score = "a" }, "", "-score"},
		{"score empty side", func(f *cliFlags) { f.Stats = false; f.Score = "a," }, "", "-score"},
		{"onevsall", func(f *cliFlags) { f.Stats = false; f.OneVsAll = "t" }, "onevsall", ""},
		{"topk", func(f *cliFlags) { f.Stats = false; f.TopK = "t" }, "topk", ""},
		{"dump", func(f *cliFlags) { f.Stats = false; f.Dump = "out.txt" }, "dump", ""},
		{"burst zero", func(f *cliFlags) { f.Burst = 0 }, "", "-burst"},
		{"conc zero", func(f *cliFlags) { f.Conc = 0 }, "", "-c"},
		{"k zero", func(f *cliFlags) { f.K = 0 }, "", "-k"},
		{"first negative", func(f *cliFlags) { f.First = -1 }, "", "-first"},
		{"dump with first", func(f *cliFlags) { f.Stats = false; f.Dump = "o.txt"; f.First = 34 }, "dump", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := valid()
			tc.mut(&f)
			op, err := validateFlags(f)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if op != tc.wantOp {
					t.Errorf("op = %q, want %q", op, tc.wantOp)
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

// TestDumpRejectsOutOfRangeIndex: a /structures reply whose index does
// not fit the list it came in is an error from -dump, not a panic.
func TestDumpRejectsOutOfRangeIndex(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/structures" {
			t.Errorf("unexpected request %s", r.URL)
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(`{"count":2,"structures":[{"id":"a","index":0},{"id":"b","index":7}]}`))
	}))
	defer ts.Close()
	c := &client{base: ts.URL, hc: ts.Client()}
	err := c.dump(filepath.Join(t.TempDir(), "scores.txt"), 0, 2)
	if err == nil || !strings.Contains(err.Error(), "index 7 out of range") {
		t.Errorf("dump over an out-of-range index: err = %v, want one naming index 7", err)
	}
}
