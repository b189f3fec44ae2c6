// Command goldmined is the fault-tolerant multi-tenant mining daemon: a JSON
// HTTP API over a pooled engine fleet with admission control, per-tenant
// budgets, retrying/quarantining job execution, and a durable job journal
// that lets a killed daemon resume pending jobs and re-serve completed
// results without recomputation.
//
// Exit codes follow the repo's CLI convention: 0 after a clean drain
// (SIGTERM/SIGINT), 1 on startup or serving errors.
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

	"goldmine/internal/serve"
	"goldmine/internal/telemetry"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8333", "listen address (host:port; port 0 picks a free port)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts that use -addr :0)")
		walPath  = flag.String("wal", "", "durable job journal path (empty = no durability)")
		corpusF  = flag.String("corpus", "", "cross-run assertion corpus journal path (empty = in-memory corpus only)")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "job-executing workers")
		jobWkrs  = flag.Int("job-workers", runtime.GOMAXPROCS(0), "cap on one job's intra-mining parallelism")
		queue    = flag.Int("queue", 64, "admission bound: max admitted-but-unfinished jobs (beyond it, 429 + Retry-After)")
		tQueue   = flag.Int("tenant-queue", 0, "per-tenant cap on queued+running jobs (0 = unlimited)")
		tBudget  = flag.Duration("tenant-budget", 0, "per-tenant total mining wall-clock budget (0 = unlimited)")
		jobTO    = flag.Duration("job-timeout", 0, "default per-job wall-clock bound (0 = none)")
		attempts = flag.Int("max-attempts", 3, "attempts before a job dying to engine-internal faults is quarantined")
		rBase    = flag.Duration("retry-base", 100*time.Millisecond, "base retry backoff (doubles per attempt, with jitter)")
		rMax     = flag.Duration("retry-max", 5*time.Second, "retry backoff cap")
		drain    = flag.Duration("drain", 15*time.Second, "graceful-drain bound: in-flight jobs past it are checkpointed for the next start")
		cacheCap = flag.Int("cache-capacity", 1<<20, "cross-run verdict cache capacity (entries; <0 = unbounded)")
		pool     = flag.Int("pool", 0, "idle engines retained per design+options (0 = workers)")
		telOut   = flag.String("telemetry", "", "write a JSONL telemetry journal to this file")
		metrics  = flag.Bool("metrics-summary", false, "print the metrics snapshot to stderr on exit")
	)
	flag.Parse()
	if err := run(*addr, *addrFile, *walPath, *telOut, serveConfig{
		workers: *workers, jobWorkers: *jobWkrs, queue: *queue,
		tenantQueue: *tQueue, tenantBudget: *tBudget, jobTimeout: *jobTO,
		attempts: *attempts, retryBase: *rBase, retryMax: *rMax,
		drain: *drain, cacheCap: *cacheCap, pool: *pool,
		corpusPath: *corpusF,
	}, *metrics); err != nil {
		fmt.Fprintln(os.Stderr, "goldmined:", err)
		os.Exit(1)
	}
}

type serveConfig struct {
	workers, jobWorkers, queue, tenantQueue int
	tenantBudget, jobTimeout                time.Duration
	attempts                                int
	retryBase, retryMax, drain              time.Duration
	cacheCap, pool                          int
	corpusPath                              string
}

func run(addr, addrFile, walPath, telOut string, sc serveConfig, metrics bool) error {
	tel, finish, err := telemetry.Start("goldmined", telOut, metrics)
	if err != nil {
		return err
	}

	s, err := serve.New(serve.Config{
		Workers:         sc.workers,
		QueueDepth:      sc.queue,
		TenantMaxActive: sc.tenantQueue,
		TenantBudget:    sc.tenantBudget,
		JobTimeout:      sc.jobTimeout,
		MaxAttempts:     sc.attempts,
		RetryBase:       sc.retryBase,
		RetryMax:        sc.retryMax,
		DrainTimeout:    sc.drain,
		CacheCapacity:   sc.cacheCap,
		MaxJobWorkers:   sc.jobWorkers,
		PoolPerKey:      sc.pool,
		WALPath:         walPath,
		CorpusPath:      sc.corpusPath,
		Tracer:          tel,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound+"\n"), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "goldmined: listening on %s (workers=%d queue=%d wal=%q)\n",
		bound, sc.workers, sc.queue, walPath)

	httpSrv := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// SIGTERM and SIGINT both drain gracefully; either way the telemetry
	// journal gets its snapshot and close trailer, so daemon journals always
	// validate under cmd/telcheck.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		return err
	}
	stop()
	fmt.Fprintln(os.Stderr, "goldmined: draining")

	shutCtx, cancel := context.WithTimeout(context.Background(), sc.drain+5*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(shutCtx)
	drainErr := s.Shutdown(shutCtx)
	finish(os.Stderr)
	if drainErr != nil && !errors.Is(drainErr, context.DeadlineExceeded) {
		return drainErr
	}
	fmt.Fprintln(os.Stderr, "goldmined: drained")
	return nil
}
