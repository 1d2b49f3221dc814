// Command rckserve runs the protein-structure-comparison service: a
// long-lived HTTP server over a mutable structure database, answering
// pairwise, one-vs-all and top-K TM-align queries with request
// coalescing (see internal/server and DESIGN.md §14).
//
// Usage:
//
//	rckserve [-addr HOST:PORT] [-dataset NAME] [-fast]
//	         [-batch N] [-workers N]
//	         [-access-log FILE] [-prune-tm T] [-debug-addr HOST:PORT]
//
// -dataset preloads a built-in synthetic dataset (CK34 or RS119) in
// canonical order, so served scores are bit-identical to a batch
// `rckalign -dataset NAME -scores-out` dump under the same kernel
// profile; an empty -dataset starts with an empty database fed purely
// by POST /structures uploads.
//
// -access-log appends one JSON line per request (request id, endpoint,
// status, latency, queue-wait/assembly/compute breakdown, memo
// outcome) — the structured feed the load generator's SLO reports and
// DESIGN.md §15 build on. "-" logs to stderr.
//
// -debug-addr serves net/http/pprof (/debug/pprof/...) on a listener
// of its own — bind it to loopback. It is off when empty, and the
// profiler is never reachable through -addr.
//
// SIGINT/SIGTERM shut down gracefully: the listener stops accepting,
// in-flight requests finish, queued batches drain, then the process
// exits 0.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rckalign/internal/batcher"
	"rckalign/internal/server"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

type cliFlags struct {
	Addr      string
	Dataset   string
	Batch     int
	Workers   int
	AccessLog string
	PruneTM   float64
	DebugAddr string
}

func validateFlags(f cliFlags) error {
	if f.Addr == "" {
		return errors.New("-addr must not be empty")
	}
	if f.Batch < 0 {
		return fmt.Errorf("-batch %d: must be >= 0 (0 = default, 1 = no coalescing)", f.Batch)
	}
	if f.Workers < 0 {
		return fmt.Errorf("-workers %d: must be >= 0 (0 = default)", f.Workers)
	}
	if !(f.PruneTM >= 0 && f.PruneTM <= 1) { // NaN fails both
		return fmt.Errorf("-prune-tm %g: must be in [0,1] (0 = no pruning)", f.PruneTM)
	}
	if f.DebugAddr == f.Addr {
		return fmt.Errorf("-debug-addr %s: must differ from -addr (the profiler gets its own listener)", f.DebugAddr)
	}
	if f.Dataset != "" {
		if _, err := synth.ByName(f.Dataset); err != nil {
			return err
		}
	}
	return nil
}

// debugHandler is what -debug-addr serves: the pprof endpoints on a mux
// of their own, so nothing else the process registers rides along and
// the public handler never carries them.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8344", "listen address")
	dataset := flag.String("dataset", "", "preload a built-in dataset: CK34 or RS119 (empty = start empty)")
	fast := flag.Bool("fast", false, "use the fast TM-align profile")
	batch := flag.Int("batch", 0, "coalescer batch size (0 = default 32; 1 disables coalescing)")
	workers := flag.Int("workers", 0, "concurrent batch executors (0 = default 1)")
	accessLog := flag.String("access-log", "", "append one JSON line per request to this file (\"-\" = stderr)")
	pruneTM := flag.Float64("prune-tm", 0, "pre-filter /onevsall and /topk sweeps: skip pairs whose conservative TM upper bound is below this threshold (0 = off; /score is never pruned)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address, on its own listener (empty = off; never on -addr)")
	flag.Parse()

	f := cliFlags{Addr: *addr, Dataset: *dataset, Batch: *batch,
		Workers: *workers, AccessLog: *accessLog, PruneTM: *pruneTM,
		DebugAddr: *debugAddr}
	if err := validateFlags(f); err != nil {
		usageFatal(err)
	}

	opt := tmalign.DefaultOptions()
	if *fast {
		opt = tmalign.FastOptions()
	}
	var logClose func() error
	cfg := server.Config{
		Dataset: cmp.Or(f.Dataset, "serve"),
		Options: opt,
		PruneTM: f.PruneTM,
		Batch: batcher.Config{
			BatchSize: f.Batch,
			Workers:   f.Workers,
		},
	}
	if f.AccessLog == "-" {
		cfg.AccessLog = os.Stderr
	} else if f.AccessLog != "" {
		lf, err := os.OpenFile(f.AccessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		cfg.AccessLog = lf
		logClose = lf.Close
	}
	srv := server.New(cfg)
	if f.Dataset != "" {
		ds, _ := synth.ByName(f.Dataset) // validated above
		if err := srv.Preload(ds.Structures); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "rckserve: preloaded %s (%d chains, %d pairs)\n",
			ds.Name, ds.Len(), ds.Pairs())
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Bind first: "listening on" names the bound address (-addr :0 too).
	listen := func(addr string) net.Listener {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			fatal(err)
		}
		return ln
	}
	ln := listen(f.Addr)
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "rckserve: listening on %s (kernel %s, batch %d)\n",
		ln.Addr(), opt.Key(), cfg.Batch.BatchSize)
	if f.DebugAddr != "" {
		dln := listen(f.DebugAddr)
		debugSrv := &http.Server{Handler: debugHandler()}
		go debugSrv.Serve(dln) // returns when Close below shuts the listener
		defer debugSrv.Close()
		fmt.Fprintf(os.Stderr, "rckserve: pprof on http://%s/debug/pprof/\n", dln.Addr())
	}

	select {
	case err := <-errCh:
		fatal(err) // unexpected listener death
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "rckserve: shutting down (draining in-flight requests)")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "rckserve: shutdown:", err)
	}
	srv.Close() // drain queued batches after handlers finished
	if logClose != nil {
		if err := logClose(); err != nil {
			fmt.Fprintln(os.Stderr, "rckserve: access log:", err)
		}
	}
	ps := srv.Store().StatsSnapshot()
	bs := srv.BatcherStats()
	fmt.Fprintf(os.Stderr,
		"rckserve: served %d pair evaluations in %d batches (max %d); pairstore %d hits / %d misses (%.1f%% hit rate)\n",
		bs.Completed, bs.Batches, bs.MaxBatch, ps.Hits, ps.Misses, 100*ps.HitRate)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rckserve:", err)
	os.Exit(1)
}

// usageFatal reports a flag-validation problem: one line on stderr and
// exit code 2, matching the flag package's own bad-usage status.
func usageFatal(err error) {
	fmt.Fprintln(os.Stderr, "rckserve:", err)
	os.Exit(2)
}
