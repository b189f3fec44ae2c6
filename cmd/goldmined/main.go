// Command goldmined is the fault-tolerant multi-tenant mining daemon: a JSON
// HTTP API that mines each job on a fresh engine on one shared verdict
// cache, with admission control, per-tenant budgets, retrying/quarantining
// job execution, and a durable job journal that lets a killed daemon resume
// pending jobs and re-serve completed results without recomputation.
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
	var cfg serve.Config
	addr := flag.String("addr", "127.0.0.1:8333", "listen address (host:port; port 0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts that use -addr :0)")
	flag.StringVar(&cfg.WALPath, "wal", "", "durable job journal path (empty = no durability)")
	flag.StringVar(&cfg.CorpusPath, "corpus", "", "cross-run assertion corpus journal path (empty = in-memory corpus only)")
	flag.IntVar(&cfg.Workers, "workers", runtime.GOMAXPROCS(0), "job-executing workers")
	flag.IntVar(&cfg.MaxJobWorkers, "job-workers", runtime.GOMAXPROCS(0), "cap on one job's intra-mining parallelism")
	flag.IntVar(&cfg.QueueDepth, "queue", 64, "admission bound: max admitted-but-unfinished jobs (beyond it, 429 + Retry-After)")
	flag.IntVar(&cfg.TenantMaxActive, "tenant-queue", 0, "per-tenant cap on queued+running jobs (0 = unlimited)")
	flag.DurationVar(&cfg.TenantBudget, "tenant-budget", 0, "per-tenant total mining wall-clock budget (0 = unlimited)")
	flag.DurationVar(&cfg.JobTimeout, "job-timeout", 0, "default per-job wall-clock bound (0 = none)")
	flag.IntVar(&cfg.MaxAttempts, "max-attempts", 3, "attempts before a job dying to engine-internal faults is quarantined")
	flag.DurationVar(&cfg.RetryBase, "retry-base", 100*time.Millisecond, "base retry backoff (doubles per attempt, with jitter)")
	flag.DurationVar(&cfg.RetryMax, "retry-max", 5*time.Second, "retry backoff cap")
	flag.DurationVar(&cfg.DrainTimeout, "drain", 15*time.Second, "graceful-drain bound: in-flight jobs past it are checkpointed for the next start")
	flag.IntVar(&cfg.CacheCapacity, "cache-capacity", 1<<20, "cross-run verdict cache capacity (entries; <0 = unbounded)")
	telOut := flag.String("telemetry", "", "write a JSONL telemetry journal to this file")
	metrics := flag.Bool("metrics-summary", false, "print the metrics snapshot to stderr on exit")
	flag.Parse()
	if err := run(*addr, *addrFile, *telOut, cfg, *metrics); err != nil {
		fmt.Fprintln(os.Stderr, "goldmined:", err)
		os.Exit(1)
	}
}

func run(addr, addrFile, telOut string, cfg serve.Config, metrics bool) error {
	tel, finish, err := telemetry.Start("goldmined", telOut, metrics)
	if err != nil {
		return err
	}

	cfg.Tracer = tel
	s, err := serve.New(cfg)
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
		bound, cfg.Workers, cfg.QueueDepth, cfg.WALPath)

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

	shutCtx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout+5*time.Second)
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
