// Command rckserve runs the protein-structure-comparison service: a
// long-lived HTTP server over a mutable structure database, answering
// pairwise, one-vs-all and top-K TM-align queries with request
// coalescing (see internal/server and DESIGN.md §14).
//
// Usage:
//
//	rckserve [-addr HOST:PORT] [-dataset NAME] [-fast]
//	         [-batch N] [-maxwait DUR] [-workers N] [-queuecap N]
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
	MaxWait   time.Duration
	Workers   int
	QueueCap  int
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
	if f.MaxWait < 0 {
		return fmt.Errorf("-maxwait %v: must be >= 0 (0 = default)", f.MaxWait)
	}
	if f.Workers < 0 {
		return fmt.Errorf("-workers %d: must be >= 0 (0 = default)", f.Workers)
	}
	if f.QueueCap < 0 {
		return fmt.Errorf("-queuecap %d: must be >= 0 (0 = default)", f.QueueCap)
	}
	if f.PruneTM < 0 || f.PruneTM > 1 {
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
	maxWait := flag.Duration("maxwait", 0, "coalescer max wait before flushing a partial batch (0 = default 2ms)")
	workers := flag.Int("workers", 0, "concurrent batch executors (0 = default 1)")
	queueCap := flag.Int("queuecap", 0, "submission queue capacity (0 = default 4*batch)")
	accessLog := flag.String("access-log", "", "append one JSON line per request to this file (\"-\" = stderr)")
	pruneTM := flag.Float64("prune-tm", 0, "pre-filter /onevsall and /topk sweeps: skip pairs whose conservative TM upper bound is below this threshold (0 = off; /score is never pruned)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address, on its own listener (empty = off; never on -addr)")
	flag.Parse()

	f := cliFlags{Addr: *addr, Dataset: *dataset, Batch: *batch,
		MaxWait: *maxWait, Workers: *workers, QueueCap: *queueCap,
		AccessLog: *accessLog, PruneTM: *pruneTM, DebugAddr: *debugAddr}
	if err := validateFlags(f); err != nil {
		usageFatal(err)
	}

	opt := tmalign.DefaultOptions()
	if *fast {
		opt = tmalign.FastOptions()
	}
	var logClose func() error
	cfg := server.Config{
		Dataset: "serve",
		Options: opt,
		PruneTM: f.PruneTM,
		Batch: batcher.Config{
			BatchSize: f.Batch,
			MaxWait:   f.MaxWait,
			Workers:   f.Workers,
			QueueCap:  f.QueueCap,
		},
	}
	if f.Dataset != "" {
		cfg.Dataset = f.Dataset
	}
	switch f.AccessLog {
	case "":
	case "-":
		cfg.AccessLog = os.Stderr
	default:
		lf, err := os.OpenFile(f.AccessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		cfg.AccessLog = lf
		logClose = lf.Close
	}
	srv := server.New(cfg)
	if f.Dataset != "" {
		ds, err := synth.ByName(f.Dataset)
		if err != nil {
			usageFatal(err) // unreachable: validated above
		}
		if err := srv.Preload(ds.Structures); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "rckserve: preloaded %s (%d chains, %d pairs)\n",
			ds.Name, ds.Len(), ds.Pairs())
	}

	httpSrv := &http.Server{Addr: f.Addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "rckserve: listening on %s (kernel %s, batch %d)\n",
		f.Addr, opt.Key(), cfg.Batch.BatchSize)
	if f.DebugAddr != "" {
		ln, err := net.Listen("tcp", f.DebugAddr)
		if err != nil {
			fatal(err)
		}
		debugSrv := &http.Server{Handler: debugHandler()}
		go debugSrv.Serve(ln) // returns when Close below shuts the listener
		defer debugSrv.Close()
		fmt.Fprintf(os.Stderr, "rckserve: pprof on http://%s/debug/pprof/\n", ln.Addr())
	}

	select {
	case err := <-errCh:
		fatal(err) // bind failure or unexpected listener death
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
