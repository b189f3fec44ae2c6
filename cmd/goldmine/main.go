// Command goldmine runs the counterexample-guided assertion and stimulus
// generation flow on a benchmark design or a Verilog file.
//
// Usage:
//
//	goldmine -design arbiter2 [-output gnt0] [-bit 0] [-seed directed]
//	goldmine -file my.v -output y -seed random:128 -format sva
//
// It prints the proven assertions (LTL, SVA or PSL), the counterexample
// patterns discovered, per-iteration statistics and the final decision tree.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"goldmine/internal/assertion"
	"goldmine/internal/core"
	"goldmine/internal/corpus"
	"goldmine/internal/designs"
	"goldmine/internal/prof"
	"goldmine/internal/rtl"
	"goldmine/internal/sim"
	"goldmine/internal/stimgen"
	"goldmine/internal/telemetry"
)

// errInterrupted reports a run cut short by SIGINT/SIGTERM or -timeout. The
// partial results are already flushed; main exits with code 2 so scripts can
// tell "partial" from "failed".
var errInterrupted = errors.New("interrupted: partial results above")

func main() {
	var (
		design   = flag.String("design", "", "benchmark design name (see -list)")
		file     = flag.String("file", "", "Verilog source file (alternative to -design)")
		output   = flag.String("output", "", "output signal to mine (default: all outputs)")
		bit      = flag.Int("bit", -1, "output bit to mine (default: all bits)")
		window   = flag.Int("window", -1, "mining window length (default: benchmark's)")
		seed     = flag.String("seed", "directed", "seed stimulus: directed | random:<cycles> | none")
		format   = flag.String("format", "ltl", "assertion format: ltl | sva | psl")
		maxIter  = flag.Int("max-iter", 64, "maximum refinement iterations")
		batched  = flag.Bool("batched", false, "batch each iteration's checks before updating the tree (Section 7 optimization; enables parallel check lanes under -j)")
		full     = flag.Bool("full-ctx", false, "add every counterexample window to the dataset")
		tree     = flag.Bool("tree", false, "print the final decision tree")
		canon    = flag.Bool("canonical", false, "print the canonical artifact rendering instead of the report (the determinism contract's byte-identical form, also served by goldmined)")
		reduce   = flag.Bool("reduce", false, "corpus reduction: ingest the mined assertions into the corpus (see -corpus), cluster by cone signature, rank with the fault/coverage oracle, and print the minimal high-value suite (deterministic for any -j)")
		corpusF  = flag.String("corpus", "", "with -reduce: persist the assertion corpus to this JSONL file (loaded before ingest, saved after; cross-run duplicates deduplicate on canonical keys)")
		minimize = flag.Bool("minimize", false, "minimize counterexample patterns before printing")
		list     = flag.Bool("list", false, "list benchmark designs and exit")
		timeout  = flag.Duration("timeout", 0, "overall wall-clock budget for the whole run (0 = none)")
		checkTO  = flag.Duration("check-timeout", 0, "wall-clock budget per formal check (0 = none)")
		workers  = flag.Int("j", runtime.GOMAXPROCS(0), "parallel mining workers (1 = sequential; results are identical for any value)")
		schedOut = flag.Bool("sched-stats", false, "print scheduler/cache telemetry to stderr (advisory, non-deterministic)")
		incr     = flag.Bool("incremental", true, "reuse pooled SAT solver sessions across checks; false decides each check on a fresh session (verdicts and counterexamples are identical either way)")
		portf    = flag.Int("portfolio", 0, "race N diversified SAT solver lanes on predicted-hard checks, sharing learned clauses (needs -incremental; 0 or 1 disables; artifacts are identical either way)")
		compiled = flag.Bool("compiled", true, "use the compiled instruction-tape simulator for seed and counterexample traces (artifacts are identical either way)")
		coi      = flag.Bool("coi", true, "cone-of-influence CNF reduction: encode only the logic each assertion can observe")
		closeCov = flag.Bool("close-coverage", false, "run the coverage-closure loop (SAT-directed stimulus aimed at the uncovered points) instead of mining")
		coverCyc = flag.Int("cover-cycles", 2000, "total stimulus cycle budget for -close-coverage")
		coverSd  = flag.Int64("cover-seed", 1, "random seed for -close-coverage")
		coverDd  = flag.String("cover-dead", "", "JSONL journal of proven-dead coverage holes, loaded before and appended after -close-coverage")
		telOut   = flag.String("telemetry", "", "write a JSONL telemetry journal (spans, events, final metrics snapshot) to this file")
		metrics  = flag.Bool("metrics-summary", false, "print the metrics snapshot (counters, gauges, histograms) to stderr on exit")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *list {
		for _, b := range designs.All() {
			fmt.Printf("%-10s %s\n", b.Name, b.Description)
		}
		return
	}
	// os.Exit below skips defers, so the profile stop runs explicitly on
	// every exit path — including the SIGINT/-timeout one (exit code 2).
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "goldmine:", err)
		os.Exit(1)
	}
	defer stopProf()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts := runOpts{
		design: *design, file: *file, output: *output,
		bit: *bit, window: *window,
		seed: *seed, format: *format,
		maxIter: *maxIter, checkTO: *checkTO, workers: *workers,
		batched: *batched, fullCtx: *full, printTree: *tree, canonical: *canon,
		reduce: *reduce, corpus: *corpusF, minimize: *minimize, schedOut: *schedOut,
		incremental: *incr, coi: *coi, compiled: *compiled, portfolio: *portf,
		closeCoverage: *closeCov, coverCycles: *coverCyc, coverSeed: *coverSd,
		coverDead: *coverDd,
		telemetry: *telOut, metricsSummary: *metrics,
		timeout: *timeout,
	}
	if err := run(ctx, opts); err != nil {
		fmt.Fprintln(os.Stderr, "goldmine:", err)
		stopProf()
		if errors.Is(err, errInterrupted) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// runOpts carries the flag values into run; the zero value of the two
// engine toggles is "off", so tests opt in explicitly where they matter.
type runOpts struct {
	design, file, output string
	bit, window          int
	seed, format         string
	maxIter              int
	checkTO              time.Duration
	timeout              time.Duration
	workers              int
	batched, fullCtx     bool
	printTree, reduce    bool
	corpus               string
	canonical            bool
	minimize, schedOut   bool
	incremental, coi     bool
	compiled             bool
	portfolio            int
	closeCoverage        bool
	coverCycles          int
	coverSeed            int64
	coverDead            string
	telemetry            string
	metricsSummary       bool
}

// validate rejects contradictory or out-of-range flag combinations up front,
// with errors that name the flags, instead of letting a bad knob surface as a
// confusing mining result (or be silently ignored) deep in the run.
func (o runOpts) validate() error {
	switch {
	case o.design != "" && o.file != "":
		return fmt.Errorf("-design and -file are mutually exclusive; pass one")
	case o.design == "" && o.file == "":
		return fmt.Errorf("need -design or -file (use -list for benchmarks)")
	}
	if o.bit >= 0 && o.output == "" {
		return fmt.Errorf("-bit %d needs -output to name the signal it indexes", o.bit)
	}
	if o.window < -1 {
		return fmt.Errorf("-window must be >= 0 (or omitted for the benchmark default), got %d", o.window)
	}
	if o.maxIter < 1 {
		return fmt.Errorf("-max-iter must be >= 1, got %d", o.maxIter)
	}
	if o.workers < 1 {
		return fmt.Errorf("-j must be >= 1, got %d", o.workers)
	}
	if o.checkTO < 0 {
		return fmt.Errorf("-check-timeout must be >= 0, got %v", o.checkTO)
	}
	if o.portfolio < 0 {
		return fmt.Errorf("-portfolio must be >= 0, got %d", o.portfolio)
	}
	if o.portfolio >= 2 && !o.incremental {
		return fmt.Errorf("-portfolio %d needs -incremental: the racing lanes live on persistent sessions", o.portfolio)
	}
	if o.closeCoverage && o.coverCycles < 1 {
		return fmt.Errorf("-cover-cycles must be >= 1, got %d", o.coverCycles)
	}
	if o.timeout > 0 && o.checkTO > o.timeout {
		return fmt.Errorf("-check-timeout %v exceeds -timeout %v: the per-check budget could never fire", o.checkTO, o.timeout)
	}
	switch o.format {
	case "ltl", "sva", "psl":
	default:
		return fmt.Errorf("-format must be ltl, sva or psl, got %q", o.format)
	}
	if o.telemetry != "" && o.telemetry == o.file {
		return fmt.Errorf("-telemetry would overwrite the -file design source %q", o.telemetry)
	}
	if o.corpus != "" && !o.reduce {
		return fmt.Errorf("-corpus needs -reduce: the corpus file is only read and written by the reduction flow")
	}
	if o.corpus != "" && o.corpus == o.file {
		return fmt.Errorf("-corpus would overwrite the -file design source %q", o.corpus)
	}
	return nil
}

func run(ctx context.Context, o runOpts) error {
	if err := o.validate(); err != nil {
		return err
	}
	var d *rtl.Design
	var bench *designs.Benchmark
	var err error
	switch {
	case o.design != "":
		bench, err = designs.Get(o.design)
		if err != nil {
			return err
		}
		d, err = bench.Design()
		if err != nil {
			return err
		}
	case o.file != "":
		src, err := os.ReadFile(o.file)
		if err != nil {
			return err
		}
		d, err = rtl.ElaborateSource(string(src))
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -design or -file (use -list for benchmarks)")
	}

	// The flags map 1:1 onto the builder's setters; Build (inside Engine)
	// rejects anything validate above missed at the library level.
	copts := core.NewOptions().
		MaxIterations(o.maxIter).
		Batched(o.batched).
		FullCtxTrace(o.fullCtx).
		Workers(o.workers).
		Incremental(o.incremental).
		Portfolio(o.portfolio).
		Compiled(o.compiled).
		CoI(o.coi).
		CheckTimeout(o.checkTO)
	if o.window >= 0 {
		copts.Window(o.window)
	} else if bench != nil {
		copts.Window(bench.Window)
	}

	var tel *telemetry.Tracer
	if o.telemetry != "" || o.metricsSummary {
		var j *telemetry.Journal
		if o.telemetry != "" {
			f, err := os.Create(o.telemetry)
			if err != nil {
				return err
			}
			j = telemetry.NewJournal(f, telemetry.DefaultJournalBuffer)
		}
		tel = telemetry.New(telemetry.NewRegistry(), j)
		copts.Telemetry(tel)
	}

	if o.closeCoverage {
		if tel != nil {
			defer func() {
				tel.EmitSnapshot()
				if err := tel.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "goldmine:", err)
				}
				if o.metricsSummary {
					_ = tel.Registry().Snapshot().WriteJSON(os.Stderr)
				}
			}()
		}
		return runClosure(ctx, d, o, tel)
	}

	stim, err := seedStimulus(d, bench, o.seed)
	if err != nil {
		return err
	}

	eng, err := copts.Engine(d)
	if err != nil {
		return err
	}
	if tel != nil {
		// The journal ends with a full metrics snapshot plus the accounting
		// trailer; the optional summary goes to stderr so the artifacts on
		// stdout stay byte-identical with telemetry on or off.
		defer func() {
			tel.EmitSnapshot()
			if err := tel.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "goldmine:", err)
			}
			if o.metricsSummary {
				_ = tel.Registry().Snapshot().WriteJSON(os.Stderr)
			}
		}()
	}

	var targets []core.Target
	addTarget := func(sig *rtl.Signal) {
		if o.bit >= 0 {
			targets = append(targets, core.Target{Output: sig, Bit: o.bit})
			return
		}
		for b := 0; b < sig.Width; b++ {
			targets = append(targets, core.Target{Output: sig, Bit: b})
		}
	}
	if o.output != "" {
		sig := d.Signal(o.output)
		if sig == nil {
			return fmt.Errorf("no signal %q", o.output)
		}
		addTarget(sig)
	} else {
		for _, sig := range d.Outputs() {
			addTarget(sig)
		}
	}

	// Mine every target (in parallel for -j > 1), then print in target order:
	// the output below is byte-identical for any -j value. On SIGINT/-timeout
	// the engine drains cleanly and everything mined so far is still flushed.
	all, err := eng.MineTargets(ctx, targets, stim)
	if err != nil {
		return err
	}
	interrupted := all.Interrupted
	mined := len(all.Outputs)
	if o.canonical {
		fmt.Print(all.Canonical())
		if interrupted {
			return fmt.Errorf("%w (%d/%d targets mined)", errInterrupted, mined, len(targets))
		}
		return nil
	}
	totalProved, totalCtx, totalUnknown, totalFaults := 0, 0, 0, 0
	for _, res := range all.Outputs {
		name := res.Output
		if sig := d.Signal(res.Output); sig != nil && sig.Width > 1 {
			name = fmt.Sprintf("%s[%d]", res.Output, res.Bit)
		}
		extra := ""
		if len(res.Unknown) > 0 || len(res.Errors) > 0 {
			extra = fmt.Sprintf(" unknown=%d faults=%d stuck=%d", len(res.Unknown), len(res.Errors), res.StuckLeafs)
		}
		if res.Interrupted {
			extra += " interrupted"
		}
		fmt.Printf("--- %s.%s: converged=%v iterations=%d proved=%d ctx=%d coverage=%.2f%%%s\n",
			d.Name, name, res.Converged, len(res.Iterations), len(res.Proved), len(res.Ctx),
			100*res.InputSpaceCoverage(), extra)
		if !o.reduce {
			// With -reduce the per-output listing is replaced by the corpus
			// section below: the suite is selected across outputs, not per
			// output.
			for _, rec := range res.Proved {
				fmt.Printf("  [it%d %s] %s\n", rec.Iteration, rec.Method, render(rec.Assertion.String(), rec, o.format, d.Clock))
			}
		}
		for i, ctx := range res.Ctx {
			if o.minimize && i < len(res.Failed) {
				if min, err := core.MinimizeCtx(d, res.Failed[i].Assertion, ctx); err == nil {
					ctx = min
				}
			}
			fmt.Printf("  ctx%d (%d cycles): %s\n", i+1, len(ctx), stimString(ctx))
		}
		if o.printTree {
			fmt.Println(res.Tree.String())
		}
		for _, ee := range res.Errors {
			fmt.Fprintf(os.Stderr, "  fault: %v\n", ee)
		}
		totalProved += len(res.Proved)
		totalCtx += len(res.Ctx)
		totalUnknown += len(res.Unknown)
		totalFaults += len(res.Errors)
	}
	if o.reduce {
		if err := corpusReport(d, all, o, tel); err != nil {
			return err
		}
	}
	extra := ""
	if totalUnknown > 0 || totalFaults > 0 {
		extra = fmt.Sprintf(", %d unknown, %d isolated faults", totalUnknown, totalFaults)
	}
	fmt.Printf("total: %d proved assertions, %d counterexample patterns%s, %d formal checks (%.2fs formal time)\n",
		totalProved, totalCtx, extra, eng.Checker.Checks, eng.Checker.TotalTime.Seconds())
	if o.schedOut && all.Sched != nil {
		s := all.Sched
		fmt.Fprintf(os.Stderr, "sched: workers=%d tasks=%d stolen=%d panics=%d cache-hits=%d deduped=%d misses=%d hit-rate=%.1f%%\n",
			s.Workers, s.Tasks, s.TasksStolen, s.WorkerPanics, s.CacheHits, s.ChecksDeduped, s.CacheMisses, 100*s.CacheHitRate)
	}
	if interrupted {
		return fmt.Errorf("%w (%d/%d targets mined)", errInterrupted, mined, len(targets))
	}
	return nil
}

// runClosure handles -close-coverage: seed randomly, aim SAT-directed
// stimulus at the remaining holes, iterate, and report the closure. The
// output is byte-identical for any -j value.
func runClosure(ctx context.Context, d *rtl.Design, o runOpts, tel *telemetry.Tracer) error {
	res, err := stimgen.CloseCoverage(ctx, d, stimgen.ClosureOptions{
		DirectedOptions: stimgen.DirectedOptions{
			Seed:      o.coverSeed,
			Workers:   o.workers,
			Telemetry: tel,
		},
		TotalCycles: o.coverCycles,
		FillRandom:  true,
		Compiled:    o.compiled,
		DeadFile:    o.coverDead,
	})
	if err != nil {
		return err
	}
	fmt.Printf("--- %s: coverage closure (budget %d cycles)\n", d.Name, o.coverCycles)
	fmt.Printf("initial: %s\n", res.Initial)
	for i, st := range res.Iterations {
		fmt.Printf("iter %d:  holes=%d directed=%d closed=%d shared=%d dead=%d deferred=%d\n",
			i+1, st.Holes, st.Directed, st.Closed, st.Shared, st.Dead, st.Deferred)
	}
	fmt.Printf("final:   %s\n", res.Final)
	fmt.Printf("methods: sat=%d fuzz=%d shared=%d dead=%d deferred=%d unreachable=%d open=%d error=%d\n",
		res.Methods[stimgen.MethodSAT], res.Methods[stimgen.MethodFuzz],
		res.Methods[stimgen.MethodShared], res.Methods[stimgen.MethodDead],
		res.Methods[stimgen.MethodDeferred],
		res.Methods[stimgen.MethodUnreachable], res.Methods[stimgen.MethodOpen],
		res.Methods[stimgen.MethodError])
	fmt.Printf("reach:   calls=%d solves=%d\n", res.ReachCalls, res.ReachSolves)
	if res.Evicted > 0 || res.Readmitted > 0 {
		fmt.Printf("compact: evicted=%d readmitted=%d\n", res.Evicted, res.Readmitted)
	}
	fmt.Printf("dead:    total=%d new=%d\n", res.DeadLoaded+len(res.Dead), len(res.Dead))
	for _, dh := range res.Dead {
		fmt.Printf("proven dead: %s (depth=%d k=%d)\n", dh.Key, dh.Depth, dh.K)
	}
	fmt.Printf("cycles=%d converged=%v\n", res.CyclesUsed, res.Converged)
	if ctx.Err() != nil {
		return errInterrupted
	}
	return nil
}

// corpusReport runs the -reduce pipeline: load the persisted corpus (when
// -corpus names one), ingest this run's proved assertions with canonical-key
// dedup, persist, then cluster/measure/select and print the reduced suite.
// Everything printed is deterministic: same design, seed and corpus file
// content produce byte-identical output for any -j value.
func corpusReport(d *rtl.Design, all *core.Result, o runOpts, tel *telemetry.Tracer) error {
	crp := corpus.New()
	loaded := 0
	if o.corpus != "" {
		var err error
		crp, err = corpus.Load(o.corpus)
		if err != nil {
			return err
		}
		loaded = crp.Len()
	}
	st := crp.IngestResult("cli", all)
	if o.corpus != "" {
		if err := corpus.Save(o.corpus, crp); err != nil {
			return err
		}
	}
	red, err := corpus.Reduce(d, crp, corpus.Options{Telemetry: tel})
	if err != nil {
		return err
	}
	fmt.Printf("--- corpus: %s ---\n", d.Name)
	fmt.Printf("ingested: %d proved records, %d new, %d duplicates (corpus %d entries, %d loaded)\n",
		st.Records, st.New, st.Dups, crp.Len(), loaded)
	fmt.Printf("clusters: %d cone signatures, %d subsumed collapsed, %d candidates\n",
		red.Clusters, red.Collapsed, red.Candidates)
	fmt.Printf("oracle: %d cycles, %d faults; full suite kills %d faults, covers %d windows, %d vacuous monitors\n",
		red.Cycles, red.Faults, red.KillsFull, red.WindowsFull, red.Vacuous)
	fmt.Printf("selected: %d of %d monitors (props %d -> %d)\n",
		len(red.Selected), red.Total, red.PropsFull, red.PropsSelected)
	fmt.Printf("retained: kills %d/%d (%.1f%%), windows %d/%d (%.1f%%)\n",
		red.KillsSelected, red.KillsFull, red.KillRetention(),
		red.WindowsSelected, red.WindowsFull, red.CoverRetention())
	for i, sel := range red.Selected {
		fmt.Printf("  %d. [+%d kills +%d windows] %s\n",
			i+1, sel.GainKills, sel.GainWindows, renderA(sel.Entry.A, o.format, d.Clock))
	}
	return nil
}

func renderA(a *assertion.Assertion, format, clock string) string {
	switch format {
	case "sva":
		return a.SVA(clock)
	case "psl":
		return a.PSL(clock)
	default:
		return a.String()
	}
}

func render(ltl string, rec core.AssertionRecord, format, clock string) string {
	switch format {
	case "sva":
		return rec.Assertion.SVA(clock)
	case "psl":
		return rec.Assertion.PSL(clock)
	default:
		return ltl
	}
}

func seedStimulus(d *rtl.Design, bench *designs.Benchmark, spec string) (sim.Stimulus, error) {
	switch {
	case spec == "none":
		return nil, nil
	case spec == "directed":
		if bench != nil && bench.Directed != nil {
			return bench.Directed(), nil
		}
		return nil, nil
	case strings.HasPrefix(spec, "random:"):
		n, err := strconv.Atoi(strings.TrimPrefix(spec, "random:"))
		if err != nil {
			return nil, fmt.Errorf("bad seed spec %q", spec)
		}
		return stimgen.Random(d, n, 1, 2), nil
	default:
		return nil, fmt.Errorf("bad seed spec %q (directed | random:<n> | none)", spec)
	}
}

func stimString(stim sim.Stimulus) string {
	var parts []string
	for _, iv := range stim {
		var kv []string
		for _, k := range sortedKeys(iv) {
			if iv[k] != 0 {
				kv = append(kv, fmt.Sprintf("%s=%d", k, iv[k]))
			}
		}
		if len(kv) == 0 {
			parts = append(parts, "-")
		} else {
			parts = append(parts, strings.Join(kv, ","))
		}
	}
	return strings.Join(parts, " | ")
}

func sortedKeys(iv sim.InputVec) []string {
	var keys []string
	for k := range iv {
		keys = append(keys, k)
	}
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	return keys
}
