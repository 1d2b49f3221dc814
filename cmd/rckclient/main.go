// Command rckclient is the test and operations client for rckserve: it
// uploads structures, runs score / one-vs-all / top-K queries, dumps
// the server's full pair matrix in the batch CLI's -scores-out format
// (for byte-for-byte comparison), and prints /statsz.
//
// Usage (one operation per invocation):
//
//	rckclient -addr HOST:PORT -upload N [-prefix P] [-c N]
//	rckclient -addr HOST:PORT -score A,B
//	rckclient -addr HOST:PORT -onevsall TARGET [-burst N]
//	rckclient -addr HOST:PORT -topk TARGET [-k N]
//	rckclient -addr HOST:PORT -dump FILE [-c N]
//	rckclient -addr HOST:PORT -stats
//
// -burst N repeats the one-vs-all query N times concurrently, verifies
// the responses are identical, and prints a min/p50/p95/max per-request
// latency digest on stderr (heavier sweeps belong to rckload).
//
// Exit status: 0 on success, 2 on bad usage or an unknown structure
// (HTTP 404), 1 on any other failure.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"time"

	"rckalign/internal/loadgen"
	"rckalign/internal/pdb"
	"rckalign/internal/sched"
	"rckalign/internal/synth"
)

type cliFlags struct {
	Addr     string
	Upload   int
	Prefix   string
	Score    string
	OneVsAll string
	TopK     string
	K        int
	Dump     string
	First    int
	Stats    bool
	Burst    int
	Conc     int
}

// validateFlags checks the flag set and returns the single selected
// operation name.
func validateFlags(f cliFlags) (string, error) {
	if f.Addr == "" {
		return "", errors.New("-addr must not be empty")
	}
	if f.Burst < 1 {
		return "", fmt.Errorf("-burst %d: must be >= 1", f.Burst)
	}
	if f.Conc < 1 {
		return "", fmt.Errorf("-c %d: must be >= 1", f.Conc)
	}
	if f.K < 1 {
		return "", fmt.Errorf("-k %d: must be >= 1", f.K)
	}
	if f.First < 0 {
		return "", fmt.Errorf("-first %d: must be >= 0 (0 = all structures)", f.First)
	}
	var ops []string
	if f.Upload > 0 {
		ops = append(ops, "upload")
	}
	if f.Upload < 0 {
		return "", fmt.Errorf("-upload %d: must be >= 0", f.Upload)
	}
	if f.Score != "" {
		if parts := strings.Split(f.Score, ","); len(parts) != 2 || parts[0] == "" || parts[1] == "" {
			return "", fmt.Errorf("-score %q: want two comma-separated structure ids", f.Score)
		}
		ops = append(ops, "score")
	}
	if f.OneVsAll != "" {
		ops = append(ops, "onevsall")
	}
	if f.TopK != "" {
		ops = append(ops, "topk")
	}
	if f.Dump != "" {
		ops = append(ops, "dump")
	}
	if f.Stats {
		ops = append(ops, "stats")
	}
	if len(ops) == 0 {
		return "", errors.New("no operation: use one of -upload, -score, -onevsall, -topk, -dump, -stats")
	}
	if len(ops) > 1 {
		return "", fmt.Errorf("one operation per invocation, got %s", strings.Join(ops, "+"))
	}
	return ops[0], nil
}

// uploadSeed seeds the synthetic structures -upload sends, so every
// upload of N structures sends the same chains.
const uploadSeed = 7

type client struct {
	base string
	hc   *http.Client
}

// errNotFound wraps an HTTP 404; main reports it as an exit-2 usage error.
var errNotFound = errors.New("not found")

// do sends a request to path and returns the body of a 2xx response.
func (c *client) do(method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusNotFound {
		return nil, fmt.Errorf("%w: %s", errNotFound, strings.TrimSpace(string(out)))
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(out)))
	}
	return out, nil
}

// upload sends n synthetic structures (disjoint prefix so repeated runs
// with different prefixes never collide), conc at a time.
func (c *client) upload(n int, prefix string, conc int) error {
	ds := synth.Small(n, uploadSeed)
	sem := make(chan struct{}, conc)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, st := range ds.Structures {
		wg.Add(1)
		go func(i int, st *pdb.Structure) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var buf bytes.Buffer
			if err := pdb.Write(&buf, st); err != nil {
				errs[i] = err
				return
			}
			id := fmt.Sprintf("%s%03d", prefix, i)
			_, err := c.do("POST", "/structures?id="+url.QueryEscape(id), buf.Bytes())
			errs[i] = err
		}(i, st)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "rckclient: uploaded %d structures (prefix %q)\n", n, prefix)
	return nil
}

// dump reproduces the batch CLI's -scores-out file from the running
// server: every canonical pair of the server's structure list, queried
// conc at a time, written in canonical order. first > 0 restricts the
// dump to the first structures by index — because the database is
// append-only, that prefix is stable even while other clients upload,
// so a -first dump of a preloaded dataset stays comparable to the
// batch dump under concurrent traffic.
func (c *client) dump(file string, first, conc int) error {
	ids, err := (&loadgen.Runner{Base: c.base, Client: c.hc}).FetchIDs()
	if err != nil {
		return err
	}
	if first > 0 && first < len(ids) {
		ids = ids[:first]
	}
	pairs := sched.AllVsAll(len(ids))
	lines := make([]string, len(pairs))
	errs := make([]error, len(pairs))
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	for k, p := range pairs {
		wg.Add(1)
		go func(k int, p sched.Pair) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			path := "/score?format=text&a=" + url.QueryEscape(ids[p.I]) + "&b=" + url.QueryEscape(ids[p.J])
			body, err := c.do("GET", path, nil)
			if err != nil {
				errs[k] = err
				return
			}
			lines[k] = string(body)
			if !strings.HasPrefix(lines[k], fmt.Sprintf("%d %d ", p.I, p.J)) {
				errs[k] = fmt.Errorf("pair (%d,%d): served line has wrong indices: %q", p.I, p.J, lines[k])
			}
		}(k, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if err := os.WriteFile(file, []byte(strings.Join(lines, "")), 0o666); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rckclient: wrote %d pair scores to %s\n", len(lines), file)
	return nil
}

// onevsall fires burst concurrent one-vs-all queries (exercising the
// server's coalescer), verifies all responses are identical, prints one
// copy, and — for bursts — a per-request latency digest on stderr.
func (c *client) onevsall(target string, burst int) error {
	bodies := make([][]byte, burst)
	errs := make([]error, burst)
	lat := make([]time.Duration, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			bodies[i], errs[i] = c.do("POST", "/onevsall?format=text&target="+url.QueryEscape(target), nil)
			lat[i] = time.Since(t0)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i := 1; i < burst; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			return fmt.Errorf("burst response %d differs from response 0", i)
		}
	}
	if burst > 1 {
		fmt.Fprintf(os.Stderr, "rckclient: %d burst responses identical; latency %s\n",
			burst, loadgen.Summarize(lat))
	}
	os.Stdout.Write(bodies[0])
	return nil
}

// printJSON fetches a compact JSON reply and prints it indented two
// spaces a level, for reading at a terminal.
func (c *client) printJSON(path string) error {
	body, err := c.do("GET", path, nil)
	if err != nil {
		return err
	}
	var out bytes.Buffer
	if err := json.Indent(&out, body, "", "  "); err != nil {
		return err
	}
	_, err = out.WriteTo(os.Stdout)
	return err
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8344", "rckserve address")
	upload := flag.Int("upload", 0, "upload this many synthetic structures")
	prefix := flag.String("prefix", "up", "structure-id prefix for -upload")
	score := flag.String("score", "", "score one pair: two comma-separated structure ids")
	onevsall := flag.String("onevsall", "", "one-vs-all query target structure id")
	topk := flag.String("topk", "", "top-K query target structure id")
	k := flag.Int("k", 5, "neighbor count for -topk")
	dump := flag.String("dump", "", "dump every pair's scores to this file in -scores-out format")
	first := flag.Int("first", 0, "restrict -dump to the first N structures by index (0 = all)")
	stats := flag.Bool("stats", false, "print /statsz")
	burst := flag.Int("burst", 1, "repeat -onevsall this many times concurrently and print a latency digest")
	conc := flag.Int("c", 4, "concurrent requests for -upload and -dump")
	flag.Parse()

	f := cliFlags{Addr: *addr, Upload: *upload, Prefix: *prefix,
		Score: *score, OneVsAll: *onevsall, TopK: *topk, K: *k,
		Dump: *dump, First: *first, Stats: *stats, Burst: *burst, Conc: *conc}
	op, err := validateFlags(f)
	if err != nil {
		usageFatal(err)
	}
	c := &client{base: "http://" + f.Addr, hc: &http.Client{}}

	switch op {
	case "upload":
		err = c.upload(f.Upload, f.Prefix, f.Conc)
	case "score":
		parts := strings.Split(f.Score, ",")
		var body []byte
		body, err = c.do("GET", "/score?format=text&a="+url.QueryEscape(parts[0])+"&b="+url.QueryEscape(parts[1]), nil)
		if err == nil {
			os.Stdout.Write(body)
		}
	case "onevsall":
		err = c.onevsall(f.OneVsAll, f.Burst)
	case "topk":
		err = c.printJSON(fmt.Sprintf("/topk?target=%s&k=%d", url.QueryEscape(f.TopK), f.K))
	case "stats":
		err = c.printJSON("/statsz")
	case "dump":
		err = c.dump(f.Dump, f.First, f.Conc)
	}
	if err != nil {
		if errors.Is(err, errNotFound) {
			usageFatal(err)
		}
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rckclient:", err)
	os.Exit(1)
}

// usageFatal reports bad usage or an unknown structure: one line on
// stderr and exit code 2.
func usageFatal(err error) {
	fmt.Fprintln(os.Stderr, "rckclient:", err)
	os.Exit(2)
}
