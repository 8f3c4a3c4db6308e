// Command cobrawalkd is the long-running simulation service: an HTTP
// daemon that accepts declarative sweep specs as jobs, runs them
// asynchronously through the sweep engine on a bounded scheduler, and
// persists every job under a data directory so a restarted daemon
// resumes in-flight work byte-identically. All jobs share one graph
// cache, so repeated topologies skip graph construction.
//
// The API lives under /v1 (see internal/server.NewHandler):
//
//	POST   /v1/jobs               submit a spec (cmd/sweep -spec format)
//	GET    /v1/jobs               list jobs
//	GET    /v1/jobs/{id}          job status + progress
//	DELETE /v1/jobs/{id}          cancel
//	GET    /v1/jobs/{id}/results  results.ndjson once done
//	GET    /v1/jobs/{id}/trajectories
//	                              NDJSON per-round quantile bands
//	GET    /v1/jobs/{id}/events   span-event trace (queued → running →
//	                              per-point progress → terminal);
//	                              ?after=<seq> polls incrementally
//	GET    /v1/jobs/{id}/stream   live SSE stream: lifecycle, in-flight
//	                              digest snapshots, completed bands
//	GET    /v1/watch              live SSE firehose across all jobs
//	GET    /v1/processes          process registry
//	GET    /v1/families           graph family registry
//	GET    /v1/metrics            sweep metric registry
//	GET    /v1/healthz            liveness, uptime, build, job counts,
//	                              queue depth, graph cache counters
//	GET    /v1/version            build identity
//	GET    /metrics               Prometheus text metrics (HTTP, jobs,
//	                              sweep throughput, graph cache, runtime)
//	GET    /debug/pprof/*         Go profiling endpoints (with -pprof)
//
// All output is structured logging (log/slog) with request-ID and
// job-ID fields; tune it with -log-level and -log-format.
//
// Usage:
//
//	cobrawalkd -data runs/daemon
//	cobrawalkd -data runs/daemon -addr 127.0.0.1:8321 -max-jobs 4
//	cobrawalkd -data runs/daemon -log-format json -log-level debug -pprof
//	curl -s -X POST -d @sweep.json localhost:8321/v1/jobs
//	curl -s localhost:8321/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cobrawalk/internal/buildinfo"
	"cobrawalk/internal/graphstore"
	"cobrawalk/internal/obs"
	"cobrawalk/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "cobrawalkd:", err)
		os.Exit(1)
	}
}

func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("cobrawalkd", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		addr      = fs.String("addr", "127.0.0.1:8321", "listen address")
		data      = fs.String("data", "", "data directory for jobs and artifacts (required)")
		maxJobs   = fs.Int("max-jobs", 2, "jobs running concurrently")
		pointWrk  = fs.Int("point-workers", 1, "points run concurrently within a job")
		workers   = fs.Int("workers", 0, "trial worker goroutines per point (0 = GOMAXPROCS)")
		kernelWrk = fs.Int("kernel-workers", 0, "intra-trial kernel workers for cobra/bips trials (0 = fill the per-job CPU budget left by -workers)")
		cacheCap  = fs.Int("graph-cache", 0, "graph cache vertex budget (0 = default)")
		graphDir  = fs.String("graph-dir", "", "graph store directory: cache misses mmap .csrg files from here and built graphs spill back (see cmd/graphbuild)")
		madvise   = fs.String("graph-madvise", "", "madvise hints for -graph-dir mmaps: comma-separated willneed,hugepage, or off")
		snapEvery = fs.Duration("snapshot-interval", 0, "spacing of in-flight digest snapshots on job streams (0 = default 500ms)")
		streamBuf = fs.Int("stream-buffer", 0, "per-subscriber SSE buffer; a subscriber that falls behind drops oldest events (0 = default 64)")
		logLevel  = fs.String("log-level", "info", "log level: debug, info, warn or error")
		logFormat = fs.String("log-format", "text", "log format: text or json")
		pprofOn   = fs.Bool("pprof", false, "serve Go profiling endpoints under /debug/pprof/")
		quiet     = fs.Bool("quiet", false, "shorthand for -log-level error")
		version   = fs.Bool("version", false, "print build info and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, buildinfo.Read())
		return nil
	}
	if *data == "" {
		return errors.New("-data is required (job state persists there across restarts)")
	}
	if *quiet {
		*logLevel = "error"
	}
	logger, err := obs.NewLogger(errw, obs.LogConfig{Level: *logLevel, Format: *logFormat})
	if err != nil {
		return err
	}
	advice, err := graphstore.ParseAdvice(*madvise)
	if err != nil {
		return fmt.Errorf("-graph-madvise: %w", err)
	}

	m, err := server.NewManager(server.Config{
		Dir:              *data,
		MaxConcurrent:    *maxJobs,
		PointWorkers:     *pointWrk,
		TrialWorkers:     *workers,
		KernelWorkers:    *kernelWrk,
		CacheBudget:      *cacheCap,
		GraphDir:         *graphDir,
		GraphMadvise:     advice,
		SnapshotInterval: *snapEvery,
		StreamBuffer:     *streamBuf,
		Logger:           logger,
	})
	if err != nil {
		return err
	}
	defer m.Close()

	handler := server.NewHandler(m)
	if *pprofOn {
		// The profiling surface mounts outside the instrumented /v1 tree:
		// profile downloads should not pollute request latency histograms.
		root := http.NewServeMux()
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
		root.Handle("/", handler)
		handler = root
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: handler}
	logger.Info("cobrawalkd starting",
		"build", buildinfo.Read().String(),
		"addr", fmt.Sprintf("http://%s", ln.Addr()),
		"data", *data,
		"job_slots", *maxJobs,
		"pprof", *pprofOn)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Graceful stop: close the listener, cancel in-flight jobs (their
		// persisted queued/running states stay resumable) and exit. The
		// cache counters summarise how much graph construction this
		// process's lifetime amortised.
		st := m.CacheStats()
		logger.Info("shutting down; unfinished jobs resume on next start",
			"cache_hits", st.Hits, "cache_misses", st.Misses, "cache_evictions", st.Evictions)
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutCtx)
		return nil
	}
}
