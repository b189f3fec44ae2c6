package goldmine

// Benchmark harness: one benchmark per table/figure of the paper's evaluation
// (E1-E9 in DESIGN.md) plus micro-benchmarks for the runtime observations of
// Section 7 (E10): formal check latency and full refinement-loop cost.
//
// Run with: go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"goldmine/internal/assertion"
	"goldmine/internal/core"
	"goldmine/internal/coverage"
	"goldmine/internal/designs"
	"goldmine/internal/experiments"
	"goldmine/internal/mc"
	"goldmine/internal/mine"
	"goldmine/internal/rtl"
	"goldmine/internal/sat"
	"goldmine/internal/sched"
	"goldmine/internal/sim"
	"goldmine/internal/stimgen"
	"goldmine/internal/telemetry"
	"goldmine/internal/trace"
)

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		e, err := experiments.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		tab, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", name)
		}
	}
}

// E1: Figure 12 — arbiter2 coverage by counterexample iteration.
func BenchmarkFig12Arbiter2(b *testing.B) { benchExperiment(b, "fig12") }

// E2: Figure 13 — design-space coverage curves.
func BenchmarkFig13DesignSpace(b *testing.B) { benchExperiment(b, "fig13") }

// E3: Figure 14 — expression coverage by iteration.
func BenchmarkFig14Expression(b *testing.B) { benchExperiment(b, "fig14") }

// E4: Table 1 — zero-pattern seed limit study.
func BenchmarkTable1ZeroSeed(b *testing.B) { benchExperiment(b, "table1") }

// E5: Figure 15 — high-coverage block improvement.
func BenchmarkFig15HighCov(b *testing.B) { benchExperiment(b, "fig15") }

// E6: Table 2 — faults covered by assertions.
func BenchmarkTable2Faults(b *testing.B) { benchExperiment(b, "table2") }

// E7: Table 3 — directed vs GoldMine on the Rigel-like modules.
func BenchmarkTable3Rigel(b *testing.B) { benchExperiment(b, "table3") }

// E8: Figure 16 — random vs GoldMine on the ITC-style benchmarks.
func BenchmarkFig16ITC(b *testing.B) { benchExperiment(b, "fig16") }

// E9: Section 6 worked example.
func BenchmarkExample6Arbiter(b *testing.B) { benchExperiment(b, "example6") }

// ---------------------------------------------------------------------------
// E10: runtime micro-benchmarks (Section 7's runtime notes)
// ---------------------------------------------------------------------------

func arbiterDesign(b *testing.B) *rtl.Design {
	b.Helper()
	bench, err := designs.Get("arbiter2")
	if err != nil {
		b.Fatal(err)
	}
	d, err := bench.Design()
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkFormalCheck measures one model-check of a mined assertion (the
// paper reports ~1.5s per check with SMV; our explicit engine is far faster
// at this design scale).
func BenchmarkFormalCheck(b *testing.B) {
	d := arbiterDesign(b)
	c := mc.New(d)
	a := &assertion.Assertion{
		Output: "gnt0",
		Antecedent: []assertion.Prop{
			assertion.P("rst", 0, 0, 1),
			assertion.P("req0", 0, 1, 1),
			assertion.P("req1", 0, 0, 1),
		},
		Consequent: assertion.P("gnt0", 1, 1, 1),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Check(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFormalCheckSAT measures the same check through the SAT engine.
func BenchmarkFormalCheckSAT(b *testing.B) {
	d := arbiterDesign(b)
	opts := mc.DefaultOptions()
	opts.MaxStateBits = 0 // force BMC + induction
	a := &assertion.Assertion{
		Output: "gnt0",
		Antecedent: []assertion.Prop{
			assertion.P("rst", 0, 0, 1),
			assertion.P("req0", 0, 1, 1),
			assertion.P("req1", 0, 0, 1),
		},
		Consequent: assertion.P("gnt0", 1, 1, 1),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := mc.NewWithOptions(d, opts)
		if _, err := c.Check(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckExplicit measures the explicit-state engine on the mined
// assertion suites of its two costliest mining designs, arbiter4 and b03: one
// op checks the whole suite on a checker whose reachability fixpoint and
// compiled batch program are already built, so it times the window
// enumeration alone. Compare runs with benchstat.
func BenchmarkCheckExplicit(b *testing.B) {
	for _, name := range []string{"arbiter4", "b03"} {
		d, suite, err := experiments.MCAssertionSuite(name, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			c := mc.New(d)
			if !c.ExplicitOK {
				b.Fatalf("%s is not explicit-eligible", name)
			}
			for _, a := range suite { // warm the fixpoint and the program
				if _, err := c.Check(a); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, a := range suite {
					if _, err := c.Check(a); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkCheckIncremental measures batched assertion checking through one
// persistent mc.Session against the fresh-session per-check baseline, on a
// realistic workload: the candidate assertions harvested from mining the
// design. The session amortizes solver construction, Tseitin frames, and
// learned clauses across the batch; the acceptance bar is >= 3x over
// "fresh" on the arbiter and fetch batches (scripts/bench.sh records the
// same comparison in BENCH_mc.json).
func BenchmarkCheckIncremental(b *testing.B) {
	for _, name := range []string{"arbiter2", "fetch"} {
		d, suite, err := experiments.MCAssertionSuite(name, 4)
		if err != nil {
			b.Fatal(err)
		}
		opts := mc.DefaultOptions()
		opts.MaxStateBits = 0 // force the SAT engines sessions accelerate
		b.Run(name+"/fresh", func(b *testing.B) {
			c := mc.NewWithOptions(d, opts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, a := range suite {
					if _, err := c.Check(a); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(name+"/session", func(b *testing.B) {
			sess := mc.NewWithOptions(d, opts).NewSession()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, a := range suite {
					if _, err := sess.Check(a); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkRefinementLoop measures a complete zero-seed mining run for one
// output (the paper: runtime proportional to the number of counterexamples).
func BenchmarkRefinementLoop(b *testing.B) {
	d := arbiterDesign(b)
	for i := 0; i < b.N; i++ {
		eng, err := core.NewEngine(d, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		res, err := eng.MineOutputByName(context.Background(), "gnt0", 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("did not converge")
		}
	}
}

// BenchmarkRefinementLoopBudgeted is BenchmarkRefinementLoop with generous
// budgets enabled but never hit — it measures the overhead of the budget
// plumbing (context polls, work-pool accounting) on the hot path. The
// acceptance bar is < 3% regression against BenchmarkRefinementLoop.
func BenchmarkRefinementLoopBudgeted(b *testing.B) {
	d := arbiterDesign(b)
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Timeout = time.Hour
		cfg.IterationTimeout = time.Hour
		cfg.MC.CheckTimeout = time.Hour
		cfg.MC.MaxWork = 1 << 40
		eng, err := core.NewEngine(d, cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := eng.MineOutputByName(context.Background(), "gnt0", 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("did not converge")
		}
	}
}

// BenchmarkSimulator measures raw cycles/sec of the RTL interpreter.
func BenchmarkSimulator(b *testing.B) {
	d := arbiterDesign(b)
	s, err := sim.New(d)
	if err != nil {
		b.Fatal(err)
	}
	stim := stimgen.Random(d, 1000, 1, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(stim); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoverageCollection measures simulation with full coverage
// instrumentation attached.
func BenchmarkCoverageCollection(b *testing.B) {
	d := arbiterDesign(b)
	stim := stimgen.Random(d, 1000, 1, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := coverage.New(d)
		if err := col.RunSuite([]sim.Stimulus{stim}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeBuild measures decision-tree construction over a 1000-row
// windowed dataset.
func BenchmarkTreeBuild(b *testing.B) {
	d := arbiterDesign(b)
	ds, err := trace.NewDataset(d, d.MustSignal("gnt0"), 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := sim.Simulate(d, stimgen.Random(d, 1000, 1, 2))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ds.AddTrace(tr, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := mine.Build(ds)
		if t.Root == nil {
			b.Fatal("no tree")
		}
	}
}

// BenchmarkSATSolver measures the CDCL solver on a PHP(8,7) instance.
func BenchmarkSATSolver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sat.New()
		v := func(p, h int) sat.Lit { return sat.Lit(p*7 + h + 1) }
		for p := 0; p < 8; p++ {
			var cl []sat.Lit
			for h := 0; h < 7; h++ {
				cl = append(cl, v(p, h))
			}
			s.AddClause(cl...)
		}
		for h := 0; h < 7; h++ {
			for p1 := 0; p1 < 8; p1++ {
				for p2 := p1 + 1; p2 < 8; p2++ {
					s.AddClause(-v(p1, h), -v(p2, h))
				}
			}
		}
		if st := s.Solve(); st != sat.Unsat {
			b.Fatalf("PHP(8,7) must be UNSAT, got %v", st)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations: design choices called out in DESIGN.md
// ---------------------------------------------------------------------------

// benchMine runs a full refinement of one output under a config.
func benchMine(b *testing.B, benchName, output string, bit int, cfg core.Config, window int) {
	b.Helper()
	bench, err := designs.Get(benchName)
	if err != nil {
		b.Fatal(err)
	}
	d, err := bench.Design()
	if err != nil {
		b.Fatal(err)
	}
	if window < 0 {
		window = bench.Window
	}
	cfg.Window = window
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := core.NewEngine(d, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sig := d.Signal(output)
		if _, err := eng.MineOutput(context.Background(), sig, bit, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBaseline is the paper's naive flow: immediate ctx
// application, violating-window row only, bit-level cone.
func BenchmarkAblationBaseline(b *testing.B) {
	benchMine(b, "decode", "valid_out", 0, core.DefaultConfig(), -1)
}

// BenchmarkAblationBatched applies Section 7's proposed optimization:
// collect all candidates per iteration, then update the tree once.
func BenchmarkAblationBatched(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.BatchedChecks = true
	benchMine(b, "decode", "valid_out", 0, cfg, -1)
}

// BenchmarkAblationFullCtxTrace feeds every window of a counterexample
// back instead of only the violating one.
func BenchmarkAblationFullCtxTrace(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.AddFullCtxTrace = true
	benchMine(b, "decode", "valid_out", 0, cfg, -1)
}

// BenchmarkAblationSignalCone reverts to the paper's signal-granular cone of
// influence: every bit of every cone signal becomes a split candidate. On
// wide-bus outputs this explodes the candidate space (see EXPERIMENTS.md);
// bounded here by MaxChecks/MaxIterations so the benchmark terminates.
func BenchmarkAblationSignalCone(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.SignalCone = true
	cfg.MaxIterations = 6
	cfg.MaxChecks = 400
	benchMine(b, "decode", "valid_out", 0, cfg, -1)
}

// BenchmarkAblationWindow varies the mining window length on the arbiter.
func BenchmarkAblationWindow0(b *testing.B) {
	benchMine(b, "arbiter2", "gnt0", 0, core.DefaultConfig(), 0)
}

// BenchmarkAblationWindow2 uses a two-cycle window (deeper temporal
// assertions, larger feature space).
func BenchmarkAblationWindow2(b *testing.B) {
	benchMine(b, "arbiter2", "gnt0", 0, core.DefaultConfig(), 2)
}

// BenchmarkElaborate measures front-end cost: parse + elaborate arbiter4.
func BenchmarkElaborate(b *testing.B) {
	bench, err := designs.Get("arbiter4")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rtl.ElaborateSource(bench.Source); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Scheduler: parallel mining and the verdict cache (internal/sched)
// ---------------------------------------------------------------------------

// BenchmarkMineAllParallel mines every output bit of the decode stage at
// increasing worker counts. On a multi-core host the speedup tracks the core
// count; on a single-CPU host it measures pure scheduler overhead (expect
// ~1x). The artifacts are identical at every -j (see core.Result.Canonical).
func BenchmarkMineAllParallel(b *testing.B) {
	bench, err := designs.Get("decode")
	if err != nil {
		b.Fatal(err)
	}
	d, err := bench.Design()
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j%d", workers), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Window = bench.Window
			cfg.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := core.NewEngine(d, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.MineAll(context.Background(), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerdictCache measures the cache on both scales: the raw cost of a
// hit lookup, and a full re-mine of arbiter2 against a warm shared cache (the
// cross-engine reuse path used by the experiments sweep).
func BenchmarkVerdictCache(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		c := sched.NewVerdictCache()
		compute := func() (*mc.Result, error) {
			return &mc.Result{Status: mc.StatusProved, Method: "bench"}, nil
		}
		if _, _, err := c.Check(context.Background(), "k", compute); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, o, err := c.Check(context.Background(), "k", compute); err != nil || o != sched.Hit {
				b.Fatalf("outcome %v err %v", o, err)
			}
		}
	})
	b.Run("warm-remine", func(b *testing.B) {
		bench, err := designs.Get("arbiter2")
		if err != nil {
			b.Fatal(err)
		}
		d, err := bench.Design()
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Window = bench.Window
		cfg.Cache = sched.NewVerdictCache()
		seed := bench.Directed()
		warm, err := core.NewEngine(d, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := warm.MineAll(context.Background(), seed); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng, err := core.NewEngine(d, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.MineAll(context.Background(), seed); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMineAllTelemetry measures the observability layer's cost on a full
// mining run of the fetch stage (the design whose checks exercise every span
// kind: BMC frames, induction steps, SAT solves, context canonicalization).
// "off" is the nil-tracer fast path — structurally identical code, every
// telemetry call a nil-receiver no-op; "metrics" keeps counters/histograms
// without a journal; "journal" additionally streams JSONL to a discarding
// sink. Metrics-only should sit within noise of "off"; the full journal
// costs in proportion to event volume (see BENCH_telemetry.json for the
// scripted measurement and DESIGN.md §4.4 for the envelope).
func BenchmarkMineAllTelemetry(b *testing.B) {
	bench, err := designs.Get("fetch")
	if err != nil {
		b.Fatal(err)
	}
	d, err := bench.Design()
	if err != nil {
		b.Fatal(err)
	}
	mineRun := func(b *testing.B, tr func() *telemetry.Tracer) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			eng, err := core.NewOptions().Window(bench.Window).Telemetry(tr()).Engine(d)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.MineAll(context.Background(), bench.Directed()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		mineRun(b, func() *telemetry.Tracer { return nil })
	})
	b.Run("metrics", func(b *testing.B) {
		mineRun(b, func() *telemetry.Tracer {
			return telemetry.New(telemetry.NewRegistry(), nil)
		})
	})
	b.Run("journal", func(b *testing.B) {
		var tracers []*telemetry.Tracer
		mineRun(b, func() *telemetry.Tracer {
			t := telemetry.New(telemetry.NewRegistry(),
				telemetry.NewJournal(io.Discard, telemetry.DefaultJournalBuffer))
			tracers = append(tracers, t)
			return t
		})
		b.StopTimer()
		for _, t := range tracers {
			if err := t.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
