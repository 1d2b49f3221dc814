package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"rckalign/internal/tmalign"
)

// writeCounter is a reusable ResponseWriter that records the status and
// counts Write calls and bytes, keeping no body.
type writeCounter struct {
	h      http.Header
	code   int
	writes int
	bytes  int
}

func (c *writeCounter) Header() http.Header  { return c.h }
func (c *writeCounter) WriteHeader(code int) { c.code = code }
func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes++
	c.bytes += len(p)
	return len(p), nil
}

// TestRepliesAreSingleWriteWithLength pins the reply shape: every JSON
// and text body goes out in one Write with Content-Length set, so even
// a body past net/http's 2 KB buffer is not chunked; JSON is compact,
// newline-terminated, and decodes to the reply structs field for field.
func TestRepliesAreSingleWriteWithLength(t *testing.T) {
	s, structs := newTestServer(t, 24, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	target := structs[0].ID
	var oneVsAll OneVsAllResponse
	var topK struct {
		Target     string          `json:"target"`
		Index      int             `json:"index"`
		K          int             `json:"k"`
		ReqID      string          `json:"req_id"`
		Neighbors  []Neighbor      `json:"neighbors"`
		MaxTiming  TimingBreakdown `json:"max_timing"`
		MemoHits   int             `json:"memo_hits"`
		MemoMisses int             `json:"memo_misses"`
		Pruned     int             `json:"pruned"`
	}
	for _, c := range []struct {
		method, path, ctype string
		into                any
	}{
		{"POST", "/onevsall?target=" + target, "application/json", &oneVsAll},
		{"POST", "/onevsall?format=text&target=" + target, "text/plain; charset=utf-8", nil},
		{"GET", "/topk?k=23&target=" + target, "application/json", &topK},
		{"GET", "/score?format=text&a=" + structs[1].ID + "&b=" + target, "text/plain; charset=utf-8", nil},
		{"GET", "/score?a=nope&b=" + target, "application/json", &ErrorResponse{}},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, transfer encoding %v for a %d-byte body, want the length and no chunking",
				c.path, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		if got := resp.Header.Get("Content-Type"); got != c.ctype {
			t.Errorf("%s: Content-Type %q, want %q", c.path, got, c.ctype)
		}
		if !bytes.HasSuffix(body, []byte("\n")) {
			t.Errorf("%s: body does not end in a newline", c.path)
		}

		cw := &writeCounter{h: http.Header{}}
		s.Handler().ServeHTTP(cw, httptest.NewRequest(c.method, c.path, nil))
		if n := cw.h.Get("Content-Length"); cw.writes != 1 || n != strconv.Itoa(cw.bytes) {
			t.Errorf("%s: %d writes of %d bytes under Content-Length %q, want one write of that length", c.path, cw.writes, cw.bytes, n)
		}

		if c.into == nil {
			continue
		}
		if bytes.Contains(body, []byte("\n ")) || bytes.Count(body, []byte("\n")) != 1 {
			t.Errorf("%s: JSON body is not compact:\n%s", c.path, body)
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(c.into); err != nil {
			t.Errorf("%s: %v\n%s", c.path, err, body)
		}
	}
	if len(oneVsAll.Rows) != len(structs)-1 || oneVsAll.Target != target || oneVsAll.MemoHits+oneVsAll.MemoMisses != len(structs)-1 {
		t.Errorf("onevsall reply = %d rows, target %q, %d+%d memo", len(oneVsAll.Rows), oneVsAll.Target, oneVsAll.MemoHits, oneVsAll.MemoMisses)
	}
	for _, row := range oneVsAll.Rows {
		want := tmalign.Compare(structs[row.I], structs[row.J], s.opt)
		if row != rowOf(jobOf(s, row.I, row.J), want) {
			t.Errorf("onevsall row %+v, want %+v", row, rowOf(jobOf(s, row.I, row.J), want))
		}
	}
	if len(topK.Neighbors) != 23 || topK.K != 23 || topK.Target != target {
		t.Errorf("topk reply = %d neighbors, k %d, target %q", len(topK.Neighbors), topK.K, topK.Target)
	}
}

// TestUnencodableReplyIs500: a reply json cannot encode (a NaN score)
// is a 500 with the ErrorResponse body, counted in /statsz's errors,
// never a 200 with an empty body; the text format of the same pair
// still serves it.
func TestUnencodableReplyIs500(t *testing.T) {
	var log bytes.Buffer
	s, structs := newTestServer(t, 2, Config{AccessLog: &log})
	s.store.Get(s.keyFor(jobOf(s, 0, 1)), func() any {
		return &tmalign.Result{TM1: math.NaN(), TM2: 0.5, RMSD: 1, AlignedLen: 10, SeqID: 0.1}
	})
	w := doTraced(t, s, "GET", "/score?a="+structs[0].ID+"&b="+structs[1].ID, "nan-1")
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("unencodable score = %d: %q", w.Code, w.Body.String())
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatalf("500 body is not JSON: %v\n%s", err, w.Body.String())
	}
	if er.ReqID != "nan-1" || !strings.Contains(er.Error, "NaN") || er.Timing.TotalS <= 0 {
		t.Errorf("500 body = %+v", er)
	}
	if got := w.Header().Get("Content-Length"); got != strconv.Itoa(w.Body.Len()) {
		t.Errorf("500 Content-Length %q for a %d-byte body", got, w.Body.Len())
	}
	var e AccessEntry
	if err := json.Unmarshal(log.Bytes(), &e); err != nil || e.Status != 500 || e.Error == "" {
		t.Errorf("access entry = %+v (%v), want status 500 with the error", e, err)
	}

	w = do(t, s, "GET", "/score?format=text&a="+structs[0].ID+"&b="+structs[1].ID, nil)
	if want := "0 1 NaN 0.5 1 10 0.10000000000000001\n"; w.Code != http.StatusOK || w.Body.String() != want {
		t.Errorf("text score = %d %q, want 200 %q", w.Code, w.Body.String(), want)
	}
	var st Statsz
	if err := json.Unmarshal(do(t, s, "GET", "/statsz", nil).Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if want := map[int]int64{500: 1}; !reflect.DeepEqual(st.Errors, want) {
		t.Errorf("/statsz errors after one 500 and one text reply = %v, want %v", st.Errors, want)
	}
}

// TestWarmReplyAllocs holds a warm /score?format=text and a warm
// /onevsall, served through Handler(), to their measured allocation
// counts (go1.24, amd64): 9 objects per /score text reply and 12 per
// 9-row /onevsall JSON reply, routing and query parsing included. A
// rise fails here first.
func TestWarmReplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random")
	}
	s, structs := newTestServer(t, 10, Config{})
	for _, c := range []struct {
		method, path string
		budget       float64
	}{
		{"GET", "/score?format=text&a=" + structs[3].ID + "&b=" + structs[7].ID, 9},
		{"POST", "/onevsall?target=" + structs[0].ID, 12},
	} {
		req := httptest.NewRequest(c.method, c.path, nil)
		cw := &writeCounter{h: http.Header{}}
		s.Handler().ServeHTTP(cw, req) // computes the pairs: later runs are warm
		if cw.code != http.StatusOK {
			t.Fatalf("%s = %d", c.path, cw.code)
		}
		n := testing.AllocsPerRun(200, func() { s.Handler().ServeHTTP(cw, req) })
		t.Logf("%s: %v allocations per request", c.path, n)
		if n > c.budget {
			t.Errorf("%s allocates %v objects per warm request, budget %v", c.path, n, c.budget)
		}
	}
}
