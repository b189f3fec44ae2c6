// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig12
//	experiments -run all [-timeout 5m] [-check-timeout 10s]
//
// SIGINT/SIGTERM or -timeout stop the run at the next experiment boundary;
// tables already rendered stand as partial results and the process exits
// with code 2.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"goldmine/internal/experiments"
	"goldmine/internal/prof"
	"goldmine/internal/telemetry"
)

func main() {
	var (
		run        = flag.String("run", "all", "experiment name or 'all'")
		list       = flag.Bool("list", false, "list experiments and exit")
		timeout    = flag.Duration("timeout", 0, "overall wall-clock budget for the whole run (0 = none)")
		checkTO    = flag.Duration("check-timeout", 0, "wall-clock budget per formal check (0 = none)")
		workers    = flag.Int("j", runtime.GOMAXPROCS(0), "parallel mining workers (1 = sequential; tables are identical for any value)")
		schedBench = flag.String("sched-bench", "", "run the scheduler benchmark and write the JSON report to this file ('-' = stdout), then exit")
		mcBench    = flag.String("mc-bench", "", "run the incremental model-checking benchmark and write the JSON report to this file ('-' = stdout), then exit")
		telBench   = flag.String("telemetry-bench", "", "run the telemetry overhead benchmark and write the JSON report to this file ('-' = stdout), then exit")
		simBench   = flag.String("sim-bench", "", "run the interpreter vs 64-lane batch simulation benchmark and write the JSON report to this file ('-' = stdout), then exit")
		serveBench = flag.String("serve-bench", "", "run the goldmined serving/durability benchmark and write the JSON report to this file ('-' = stdout), then exit")
		coverBench = flag.String("cover-bench", "", "run the coverage-closure benchmark (directed vs random vs CEX-only) and write the JSON report to this file ('-' = stdout), then exit")
		corpBench  = flag.String("corpus-bench", "", "run the assertion-corpus reduction benchmark (dedup, clustering, oracle-ranked suite reduction) and write the JSON report to this file ('-' = stdout), then exit")
		telOut     = flag.String("telemetry", "", "write a JSONL telemetry journal of the whole run to this file")
		metrics    = flag.Bool("metrics-summary", false, "print the aggregated metrics snapshot as JSON to stderr on exit")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.Name, e.Desc)
		}
		return
	}
	// os.Exit below skips defers, so the profile stop runs explicitly on
	// every exit path — including the interrupt one (exit code 2).
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	defer stopProf()
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		stopProf()
		os.Exit(1)
	}
	experiments.CheckTimeout = *checkTO
	experiments.Workers = *workers

	// os.Exit skips defers, so the telemetry flush (like the profile stop)
	// runs explicitly on the error and interrupt exit paths too.
	flushTel := func() {}
	if *telOut != "" || *metrics {
		var j *telemetry.Journal
		if *telOut != "" {
			f, err := os.Create(*telOut)
			if err != nil {
				fail("experiments: %v", err)
			}
			j = telemetry.NewJournal(f, telemetry.DefaultJournalBuffer)
		}
		tel := telemetry.New(telemetry.NewRegistry(), j)
		experiments.Telemetry = tel
		flushed := false
		flushTel = func() {
			if flushed {
				return
			}
			flushed = true
			tel.EmitSnapshot()
			if err := tel.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
			if *metrics {
				_ = tel.Registry().Snapshot().WriteJSON(os.Stderr)
			}
		}
		defer flushTel()
		prevFail := fail
		fail = func(format string, args ...any) {
			flushTel()
			prevFail(format, args...)
		}
	}

	// Signals are installed BEFORE the bench dispatch below: a SIGTERM (or
	// SIGINT) mid-bench must drain through the clean-partial path — telemetry
	// snapshot, journal close trailer, exit 2 — not default-kill the process
	// and leave a journal cmd/telcheck rejects.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	benchTo := func(path string, run func(io.Writer) error, what string) {
		var out io.Writer = os.Stdout
		if path != "-" {
			f, err := os.Create(path)
			if err != nil {
				fail("experiments: %v", err)
			}
			defer f.Close()
			out = f
		}
		// The bench runs in a goroutine so a signal can cut it loose: the
		// report is lost, but the journal still gets its trailer.
		done := make(chan error, 1)
		go func() { done <- run(out) }()
		select {
		case err := <-done:
			if err != nil {
				fail("experiments: %s: %v", what, err)
			}
		case <-ctx.Done():
			experiments.Telemetry.Event("run.abandoned", telemetry.String("experiment", what))
			fmt.Fprintf(os.Stderr, "experiments: %s interrupted\n", what)
			flushTel()
			stopProf()
			os.Exit(2)
		}
	}
	if *schedBench != "" {
		benchTo(*schedBench, func(w io.Writer) error { return experiments.SchedBench(w, *workers) }, "sched-bench")
		return
	}
	if *mcBench != "" {
		benchTo(*mcBench, experiments.MCBench, "mc-bench")
		return
	}
	if *telBench != "" {
		benchTo(*telBench, experiments.TelemetryBench, "telemetry-bench")
		return
	}
	if *simBench != "" {
		benchTo(*simBench, experiments.SimBench, "sim-bench")
		return
	}
	if *serveBench != "" {
		benchTo(*serveBench, func(w io.Writer) error { return experiments.ServeBench(w, *workers) }, "serve-bench")
		return
	}
	if *coverBench != "" {
		benchTo(*coverBench, func(w io.Writer) error { return experiments.CoverBench(w, *workers) }, "cover-bench")
		return
	}
	if *corpBench != "" {
		benchTo(*corpBench, experiments.CorpusBench, "corpus-bench")
		return
	}

	var targets []experiments.Experiment
	if *run == "all" {
		targets = experiments.All()
	} else {
		e, err := experiments.Get(*run)
		if err != nil {
			fail("experiments: %v", err)
		}
		targets = []experiments.Experiment{*e}
	}

	type outcome struct {
		tab *experiments.Table
		err error
	}
	completed := 0
	for _, e := range targets {
		if ctx.Err() != nil {
			break
		}
		start := time.Now()
		// Run in a goroutine so cancellation can cut a stalled experiment
		// loose; a completed experiment always flushes its table first.
		ch := make(chan outcome, 1)
		go func(e experiments.Experiment) {
			tab, err := e.Run()
			ch <- outcome{tab, err}
		}(e)
		select {
		case o := <-ch:
			if o.err != nil {
				fail("experiments: %s: %v", e.Name, o.err)
			}
			o.tab.Render(os.Stdout)
			fmt.Printf("(%s completed in %.2fs)\n\n", e.Name, time.Since(start).Seconds())
			completed++
		case <-ctx.Done():
			// The abandoned goroutine's open spans will never End, so the
			// journal records the abandonment; telcheck reads this event and
			// demotes the resulting missing-parent links to warnings.
			experiments.Telemetry.Event("run.abandoned",
				telemetry.String("experiment", e.Name))
			fmt.Fprintf(os.Stderr, "experiments: %s abandoned after %.2fs\n", e.Name, time.Since(start).Seconds())
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "experiments: interrupted — %d/%d experiments completed (tables above are final)\n",
			completed, len(targets))
		flushTel()
		stopProf()
		os.Exit(2)
	}
}
