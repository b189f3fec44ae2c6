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
	"errors"
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

// errInterrupted marks a run cut short by a signal or -timeout; main maps it
// to exit code 2.
var errInterrupted = errors.New("interrupted")

func main() {
	var o runOpts
	flag.StringVar(&o.run, "run", "all", "experiment name or 'all'")
	flag.BoolVar(&o.list, "list", false, "list experiments and exit")
	flag.DurationVar(&o.timeout, "timeout", 0, "overall wall-clock budget for the whole run (0 = none)")
	flag.DurationVar(&o.checkTO, "check-timeout", 0, "wall-clock budget per formal check (0 = none)")
	flag.IntVar(&o.workers, "j", runtime.GOMAXPROCS(0), "parallel mining workers (1 = sequential; tables are identical for any value)")
	flag.StringVar(&o.telemetry, "telemetry", "", "write a JSONL telemetry journal of the whole run to this file")
	flag.BoolVar(&o.metricsSummary, "metrics-summary", false, "print the aggregated metrics snapshot as JSON to stderr on exit")
	flag.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&o.memProf, "memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, o, os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		if errors.Is(err, errInterrupted) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// runOpts carries the flag values into run.
type runOpts struct {
	run              string
	list             bool
	timeout, checkTO time.Duration
	workers          int
	telemetry        string
	metricsSummary   bool
	cpuProf, memProf string
}

// validate rejects out-of-range flags up front, with the messages goldmine
// uses for the same flags.
func (o runOpts) validate() error {
	if o.workers < 1 {
		return fmt.Errorf("-j must be >= 1, got %d", o.workers)
	}
	if o.timeout < 0 {
		return fmt.Errorf("-timeout must be >= 0, got %v", o.timeout)
	}
	if o.checkTO < 0 {
		return fmt.Errorf("-check-timeout must be >= 0, got %v", o.checkTO)
	}
	return nil
}

// run renders the selected experiments' tables to w. Profiles and the
// telemetry journal are flushed on every return path, the interrupted one
// included.
func run(ctx context.Context, o runOpts, w io.Writer) error {
	if err := o.validate(); err != nil {
		return err
	}
	if o.list {
		for _, e := range experiments.All() {
			fmt.Fprintf(w, "%-10s %s\n", e.Name, e.Desc)
		}
		return nil
	}
	targets := experiments.All()
	if o.run != "all" {
		e, err := experiments.Get(o.run)
		if err != nil {
			return err
		}
		targets = []experiments.Experiment{*e}
	}

	stopProf, err := prof.Start(o.cpuProf, o.memProf)
	if err != nil {
		return err
	}
	defer stopProf()
	experiments.CheckTimeout = o.checkTO
	experiments.Workers = o.workers
	tel, finish, err := telemetry.Start("experiments", o.telemetry, o.metricsSummary)
	if err != nil {
		return err
	}
	defer finish(os.Stderr)
	experiments.Telemetry = tel
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
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
				return fmt.Errorf("%s: %w", e.Name, o.err)
			}
			o.tab.Render(w)
			fmt.Fprintf(w, "(%s completed in %.2fs)\n\n", e.Name, time.Since(start).Seconds())
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
		return fmt.Errorf("%w — %d/%d experiments completed (tables above are final)",
			errInterrupted, completed, len(targets))
	}
	return nil
}
