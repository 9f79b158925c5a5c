// killi-simd is the resident simulation service: a daemon that keeps the
// content-addressed result cache, the worker pool, and the metrics document
// warm across many requests instead of paying process start-up per sweep.
//
// It serves the internal/simserver JSON API:
//
//	POST /v1/jobs     submit a run, sweep, or fleet-campaign job, block for
//	                  the result. Identical in-flight jobs coalesce into one
//	                  simulation; completed jobs are served from the cache. A
//	                  full queue answers 429 with a Retry-After hint.
//	GET  /v1/jobs/{key}  re-fetch a completed job by its content-address key
//	                  from the bounded retained registry (-retain-jobs /
//	                  -retain-ttl); 404 once evicted.
//	GET  /v1/observe  stream one run's DFH training dynamics as Server-Sent
//	                  Events (per-epoch samples, state populations, resets).
//	GET  /v1/campaign run a fleet Monte Carlo campaign (internal/campaign)
//	                  and stream its per-die progress as Server-Sent Events,
//	                  ending with the aggregated yield/Vmin result.
//	GET  /healthz     liveness and queue statistics.
//	GET  /metrics     live job counters and sweep progress (expvar JSON).
//	GET  /debug/vars  the standard expvar page.
//
// Concurrency is budgeted against the machine: -workers jobs execute at
// once, and the default worker count is GOMAXPROCS. SIGINT or SIGTERM
// begins a graceful shutdown: the listener stops accepting, queued and
// running jobs drain (bounded by -drain), the cache is swept of
// temporaries, and the metrics listener closes. A drain that exceeds its
// budget cancels in-flight simulations at their next kernel boundary and
// exits nonzero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"killi/internal/experiments"
	"killi/internal/obs"
	"killi/internal/simserver"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "localhost:8070", "address to serve the job API on")
	cacheDir := flag.String("cache", "", "directory for the content-addressed result cache shared by all jobs (empty = every job simulates)")
	workers := flag.Int("workers", 0, "concurrently executing jobs (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "jobs allowed to wait beyond the running ones before 429 (0 = 4x workers)")
	metricsAddr := flag.String("metrics-addr", "", "serve the metrics document on a second address too (e.g. localhost:8060); the job API always has /metrics")
	drain := flag.Duration("drain", time.Minute, "how long shutdown waits for queued and running jobs before cancelling them")
	retainJobs := flag.Int("retain-jobs", 0, "completed jobs kept re-fetchable via GET /v1/jobs/{key} (0 = default 1024, negative disables retention)")
	retainTTL := flag.Duration("retain-ttl", 0, "age bound on retained jobs (0 = default 10m, negative disables age eviction)")
	flag.Parse()

	// Fail on flag nonsense before binding sockets or starting workers.
	// workers=0 means "auto", which ValidateFlags spells -1.
	vworkers := *workers
	if vworkers == 0 {
		vworkers = -1
	}
	if err := experiments.ValidateFlags(1, vworkers, runtime.GOMAXPROCS(0)); err != nil {
		fmt.Fprintf(os.Stderr, "killi-simd: %v\n", err)
		return 2
	}
	if *queue < 0 {
		fmt.Fprintf(os.Stderr, "killi-simd: -queue must be >= 0, got %d\n", *queue)
		return 2
	}
	if *drain <= 0 {
		fmt.Fprintf(os.Stderr, "killi-simd: -drain must be positive, got %v\n", *drain)
		return 2
	}

	m := obs.NewMetrics()
	if *metricsAddr != "" {
		got, err := m.Serve(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "killi-simd: -metrics-addr: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "killi-simd: metrics at http://%s/metrics\n", got)
	}

	svc, err := simserver.New(simserver.Config{
		CacheDir:   *cacheDir,
		Workers:    *workers,
		QueueDepth: *queue,
		Metrics:    m,
		RetainJobs: *retainJobs,
		RetainTTL:  *retainTTL,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "killi-simd: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "killi-simd: %v\n", err)
		return 1
	}
	st := svc.Stats()
	fmt.Fprintf(os.Stderr, "killi-simd: serving jobs at http://%s/v1/jobs (%d workers, queue %d, cache %q)\n",
		ln.Addr(), st.Workers, st.Queue, *cacheDir)

	httpSrv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "killi-simd: %v\n", err)
		return 1
	}
	stop() // a second signal kills the process the default way

	// Graceful shutdown: stop accepting, let in-flight HTTP requests finish
	// as their jobs drain, then stop the pool. Both phases share one drain
	// budget; blowing it cancels simulations at their next kernel boundary.
	fmt.Fprintln(os.Stderr, "killi-simd: shutting down (draining jobs)")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	code := 0
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "killi-simd: http shutdown: %v\n", err)
		code = 1
	}
	if err := svc.Close(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "killi-simd: drain cut short: %v\n", err)
		code = 1
	}
	if err := m.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "killi-simd: metrics close: %v\n", err)
		code = 1
	}
	fmt.Fprintln(os.Stderr, "killi-simd: stopped")
	return code
}
