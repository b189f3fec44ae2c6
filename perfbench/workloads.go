package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"goldmine/internal/core"
	"goldmine/internal/corpus"
	"goldmine/internal/coverage"
	"goldmine/internal/designs"
	"goldmine/internal/holes"
	"goldmine/internal/rtl"
	"goldmine/internal/sim"
	"goldmine/internal/stimgen"
	"goldmine/internal/telemetry"
)

// workload is one benchmark input: a fixed design mix and what one pass does
// with it. NOTES.md records why each mix was chosen.
type workload struct {
	name    string
	designs []string
	// output describes the workload's deterministic output_count.
	output string
	// mines marks workloads whose set-up mines every design once.
	mines bool
	pass  func(ctx context.Context, rs *runState, tr *telemetry.Tracer) (*passResult, error)
	// postCheck, when set, runs once after the measured window; it returns
	// failed checks.
	postCheck func(ctx context.Context, rs *runState) []string
}

var workloads = map[string]*workload{
	"mine": {
		name:      "mine",
		designs:   []string{"arbiter4", "b03", "b06", "b11", "b12", "b17", "b18", "decode", "fetch", "pipeline"},
		output:    "coverage points the mined suites (directed seed plus counterexamples) leave uncovered",
		pass:      minePass,
		postCheck: mineOneWorker,
	},
	"close": {
		name:    "close",
		designs: []string{"arbiter2", "b06", "b09", "b10", "b12", "b17", "b18", "cex_small", "decode", "pipeline"},
		output:  "coverage points left uncovered by the closed suites (uncovered_points)",
		pass:    closePass,
	},
	"reduce": {
		name:    "reduce",
		designs: []string{"arbiter4", "b11", "b12", "b17", "b18", "decode", "fetch", "pipeline"},
		output:  "monitors selected at full retention (reduced_monitors)",
		mines:   true,
		pass:    reducePass,
	},
}

// closeCycles is the closure stimulus budget: small enough that it binds on
// the larger designs, so witness parking and suite compaction run.
const closeCycles = 512

// closeSeeds and oracleSeeds are how many seeds a close or reduce pass runs
// per design. How much work closure and the reduction oracle do depends on
// the seed (by up to 15% per pass on two cores), so each pass averages over
// several seeds derived from the workload seed.
const (
	closeSeeds  = 8
	oracleSeeds = 3
)

// runState is what set-up prepares for the passes of one run.
type runState struct {
	seed    int64
	workers int
	tmp     string
	benches []*designs.Benchmark
	designs []*rtl.Design
	mined   []*core.Result // reduce only: each design mined once in set-up
	elabMS  float64        // elaboration time of the last set-up
}

// setup elaborates the workload's designs and, for reduce, mines each once.
func (rs *runState) setup(ctx context.Context, wl *workload) error {
	rs.benches, rs.designs, rs.mined, rs.elabMS = nil, nil, nil, 0
	for _, name := range wl.designs {
		b, err := designs.Get(name)
		if err != nil {
			return err
		}
		t0 := time.Now()
		d, err := b.Design()
		rs.elabMS += time.Since(t0).Seconds() * 1e3
		if err != nil {
			return err
		}
		rs.benches = append(rs.benches, b)
		rs.designs = append(rs.designs, d)
	}
	if !wl.mines {
		return nil
	}
	for i := range rs.designs {
		res, err := rs.mine(ctx, i, rs.workers)
		if err != nil {
			return err
		}
		rs.mined = append(rs.mined, res)
	}
	return nil
}

// mine mines every output of design i, untraced, with the given workers.
func (rs *runState) mine(ctx context.Context, i, workers int) (*core.Result, error) {
	d := rs.designs[i]
	eng, err := mineOptions(rs.benches[i], workers, nil).Engine(d)
	if err != nil {
		return nil, err
	}
	res, err := eng.MineTargets(ctx, eng.Targets(), directed(rs.benches[i]))
	if err != nil {
		return nil, fmt.Errorf("mining %s: %w", d.Name, err)
	}
	return res, nil
}

// mineOptions are the goldmine CLI defaults: compiled simulation,
// incremental sessions, cone of influence, no portfolio, 64 iterations.
func mineOptions(b *designs.Benchmark, workers int, tr *telemetry.Tracer) *core.Options {
	return core.NewOptions().
		Window(b.Window).
		MaxIterations(64).
		Workers(workers).
		Incremental(true).
		Compiled(true).
		CoI(true).
		Portfolio(0).
		Telemetry(tr)
}

// directed is the design's fixed directed test (nil where it has none), the
// CLI's default seed stimulus.
func directed(b *designs.Benchmark) sim.Stimulus {
	if b.Directed == nil {
		return nil
	}
	return b.Directed()
}

// derive mixes the workload seed with a label into a positive seed.
func derive(seed int64, label string) int64 {
	h := fnv.New64a()
	io.WriteString(h, label)
	x := uint64(seed) ^ h.Sum64()
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x>>1) | 1
}

// passResult is what one pass measured and produced.
type passResult struct {
	wall   time.Duration
	cpu    float64         // process CPU seconds the pass took
	design []time.Duration // per design, aligned with workload.designs
	// callMS sums the wall time of each kind of timed call; calls sums all.
	callMS map[string]float64
	calls  time.Duration

	attempted, failed   int
	output              int
	uncovered, monitors int
	// layer holds workload-specific per-layer values (counts, and the
	// numerator/denominator pairs of ratios); summed over traced passes.
	layer    map[string]float64
	problems []string
}

func newPass(n int) *passResult {
	return &passResult{design: make([]time.Duration, n), callMS: map[string]float64{}, layer: map[string]float64{}}
}

// timed makes one call into the program, measured by the benchmark's clock
// and, on a traced pass, under a root span named bench.<name> that records
// the design the call works on ("" for calls that span designs).
func (pr *passResult) timed(ctx context.Context, tr *telemetry.Tracer, name, design string, fn func(context.Context) error) (time.Duration, error) {
	t0 := time.Now()
	sctx, sp := tr.StartSpan(ctx, benchPrefix+name, telemetry.String("design", design))
	err := fn(sctx)
	sp.End()
	d := time.Since(t0)
	pr.callMS[name] += d.Seconds() * 1e3
	pr.calls += d
	return d, err
}

func (pr *passResult) fail(format string, args ...any) {
	pr.problems = append(pr.problems, fmt.Sprintf(format, args...))
}

// --- mine ------------------------------------------------------------------

//go:embed reference.txt
var referenceText string

// reference maps each mine design to the SHA-256 of its Result.Canonical()
// mined with one worker (regenerate with -write-reference).
var reference = func() map[string]string {
	m := map[string]string{}
	for _, line := range strings.Split(referenceText, "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			m[f[0]] = f[1]
		}
	}
	return m
}()

func digest(res *core.Result) string {
	sum := sha256.Sum256([]byte(res.Canonical()))
	return hex.EncodeToString(sum[:])
}

// minePass runs the paper's loop on every design with a fresh engine (and so
// a fresh verdict cache), as one CLI run does.
func minePass(ctx context.Context, rs *runState, tr *telemetry.Tracer) (*passResult, error) {
	pr := newPass(len(rs.designs))
	var results []*core.Result
	t0 := time.Now()
	for i, d := range rs.designs {
		var eng *core.Engine
		var res *core.Result
		de, err := pr.timed(ctx, tr, "engine_build", d.Name, func(context.Context) error {
			var err error
			eng, err = mineOptions(rs.benches[i], rs.workers, tr).Engine(d)
			return err
		})
		if err != nil {
			return nil, err
		}
		dm, err := pr.timed(ctx, tr, "mine_targets", d.Name, func(ctx context.Context) error {
			var err error
			res, err = eng.MineTargets(ctx, eng.Targets(), directed(rs.benches[i]))
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("mining %s: %w", d.Name, err)
		}
		pr.design[i] = de + dm
		if got, want := digest(res), reference[d.Name]; got != want {
			pr.fail("mine %s: canonical digest %.12s, reference %.12s", d.Name, got, want)
		}
		for _, o := range res.Outputs {
			pr.attempted += len(o.Proved) + len(o.Failed) + len(o.Unknown)
			pr.failed += len(o.Unknown) + len(o.Errors)
		}
		results = append(results, res)
		if s := res.Sched; s != nil {
			pr.layer["sched.hits"] += float64(s.CacheHits + s.ChecksDeduped)
			pr.layer["sched.probes"] += float64(s.CacheHits + s.ChecksDeduped + s.CacheMisses)
		}
	}
	pr.wall = time.Since(t0)
	// Outside the pass wall: the paper's measure of the generated stimulus,
	// the coverage the mined suite reaches, replayed on the interpreter.
	for _, res := range results {
		col := coverage.New(res.Design)
		if err := col.RunSuite(res.Suite()); err != nil {
			return nil, fmt.Errorf("replaying the %s suite: %w", res.Design.Name, err)
		}
		pr.uncovered += uncoveredPoints(col.Report())
	}
	pr.output = pr.uncovered
	return pr, nil
}

// mineOneWorker re-mines one design, chosen by the seed, with a single
// worker: its digest must equal the reference (which is itself a one-worker
// digest) and so the nproc-worker digest every pass was checked against.
func mineOneWorker(ctx context.Context, rs *runState) []string {
	i := int(uint64(rs.seed) % uint64(len(rs.designs)))
	d := rs.designs[i]
	res, err := rs.mine(ctx, i, 1)
	if err != nil {
		return []string{err.Error()}
	}
	if got, want := digest(res), reference[d.Name]; got != want {
		return []string{fmt.Sprintf("mine %s with one worker: digest %.12s, reference %.12s", d.Name, got, want)}
	}
	fmt.Printf("one-worker check: %s digest matches the reference\n", d.Name)
	return nil
}

// writeReference prints the reference digests of the mine designs.
func writeReference(w io.Writer) error {
	rs := &runState{workers: 1}
	if err := rs.setup(context.Background(), workloads["mine"]); err != nil {
		return err
	}
	fmt.Fprintf(w, "# SHA-256 of core.Result.Canonical() per mine design, mined with one worker\n")
	fmt.Fprintf(w, "# (go run . -write-reference > reference.txt)\n")
	for i, d := range rs.designs {
		res, err := rs.mine(context.Background(), i, 1)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s %s\n", d.Name, digest(res))
	}
	return nil
}

// --- close -----------------------------------------------------------------

// uncoveredPoints is Σ(Total−Covered) over the report's metrics.
func uncoveredPoints(r coverage.Report) int {
	n := 0
	for _, m := range []coverage.Metric{r.Line, r.Branch, r.Cond, r.Expr, r.Toggle, r.FSM} {
		n += m.Total - m.Covered
	}
	return n
}

// closePass runs the adaptive closure engine closeSeeds times on every
// design, with closure seeds derived from the workload seed (the same seeds
// every pass).
func closePass(ctx context.Context, rs *runState, tr *telemetry.Tracer) (*passResult, error) {
	pr := newPass(len(rs.designs))
	t0 := time.Now()
	for i, d := range rs.designs {
		for k := 0; k < closeSeeds; k++ {
			var res *stimgen.ClosureResult
			dt, err := pr.timed(ctx, tr, "close_coverage", d.Name, func(ctx context.Context) error {
				var err error
				res, err = stimgen.CloseCoverage(ctx, d, stimgen.ClosureOptions{
					DirectedOptions: stimgen.DirectedOptions{
						Seed:      derive(rs.seed, fmt.Sprintf("close/%s/%d", d.Name, k)),
						Workers:   rs.workers,
						Telemetry: tr,
					},
					TotalCycles: closeCycles,
					FillRandom:  true,
					Compiled:    true,
				})
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("closing %s: %w", d.Name, err)
			}
			pr.design[i] += dt
			checkClosure(pr, d, res)
			pr.attempted += len(res.Attempts)
			pr.failed += res.Methods[stimgen.MethodError]
			pr.uncovered += uncoveredPoints(res.Final)
			if len(res.Iterations) > 0 {
				pr.layer["holes.initial"] += float64(res.Iterations[0].Holes)
			}
			for _, m := range []string{stimgen.MethodSAT, stimgen.MethodFuzz, stimgen.MethodShared, stimgen.MethodDead, stimgen.MethodDeferred} {
				pr.layer["stimgen.holes_"+m] += float64(res.Methods[m])
			}
			pr.layer["stimgen.evicted"] += float64(res.Evicted)
			pr.layer["stimgen.readmitted"] += float64(res.Readmitted)
			pr.layer["mc.reach_calls"] += float64(res.ReachCalls)
			pr.layer["mc.reach_solves"] += float64(res.ReachSolves)
		}
	}
	pr.output = pr.uncovered
	pr.wall = time.Since(t0)
	return pr, nil
}

// checkClosure replays the closed suite through a fresh interpreter-backed
// collector: it must reproduce the reported final coverage, and every hole
// proven dead must still be open.
func checkClosure(pr *passResult, d *rtl.Design, res *stimgen.ClosureResult) {
	col := coverage.New(d)
	if err := col.RunSuite(res.Suite); err != nil {
		pr.fail("close %s: replay: %v", d.Name, err)
		return
	}
	// The closure's own collector counts re-collected cycles again, so its
	// Cycles field exceeds the suite length; the replay must match the
	// coverage figures and cover exactly CyclesUsed cycles.
	got, want := col.Report(), res.Final
	if got.Cycles != res.CyclesUsed {
		pr.fail("close %s: replayed %d cycles, suite reports %d", d.Name, got.Cycles, res.CyclesUsed)
	}
	got.Cycles = want.Cycles
	if got != want {
		pr.fail("close %s: replayed coverage %s, reported %s", d.Name, got, want)
	}
	open := map[string]bool{}
	for _, h := range holes.FromCollector(col) {
		open[h.Key()] = true
	}
	for _, dh := range res.Dead {
		if !open[dh.Key] {
			pr.fail("close %s: hole %s proven dead but covered by the suite", d.Name, dh.Key)
		}
	}
}

// --- reduce ----------------------------------------------------------------

// reducePass runs the corpus pipeline over the results mined in set-up, in a
// fresh journal: ingest everything twice (new entries, then duplicates),
// reopen from disk, then cluster each design and reduce it under
// oracleSeeds oracle seeds derived from the workload seed.
func reducePass(ctx context.Context, rs *runState, tr *telemetry.Tracer) (*passResult, error) {
	pr := newPass(len(rs.designs))
	dir, err := os.MkdirTemp(rs.tmp, "corpus-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "corpus.jsonl")

	t0 := time.Now()
	var live *corpus.Corpus
	var store *corpus.Store
	if _, err := pr.timed(ctx, tr, "open_store", "", func(context.Context) error {
		var err error
		live, store, err = corpus.OpenStore(path)
		return err
	}); err != nil {
		return nil, err
	}
	for _, label := range []string{"run-a", "run-b"} {
		name := "ingest_new"
		if label == "run-b" {
			name = "ingest_dup"
		}
		for i, res := range rs.mined {
			var st corpus.IngestStats
			dt, _ := pr.timed(ctx, tr, name, res.Design.Name, func(context.Context) error {
				st = live.IngestResult(label, res)
				return nil
			})
			pr.design[i] += dt
			switch {
			case label == "run-a" && st.New == 0:
				pr.fail("reduce %s: first ingest added nothing", res.Design.Name)
			case label == "run-b" && st.New != 0:
				pr.fail("reduce %s: second ingest reports %d new entries, want 0", res.Design.Name, st.New)
			}
		}
	}
	if _, err := pr.timed(ctx, tr, "close_store", "", func(context.Context) error { return store.Close() }); err != nil {
		return nil, err
	}
	if err := store.Err(); err != nil {
		return nil, fmt.Errorf("corpus store: %w", err)
	}
	var loaded *corpus.Corpus
	if _, err := pr.timed(ctx, tr, "load", "", func(context.Context) error {
		var err error
		loaded, err = corpus.Load(path)
		return err
	}); err != nil {
		return nil, err
	}
	if loaded.Len() != live.Len() {
		pr.fail("reduce: reloaded corpus has %d entries, live corpus %d", loaded.Len(), live.Len())
	}
	for i, d := range rs.designs {
		var cl []corpus.Cluster
		dc, _ := pr.timed(ctx, tr, "clusters", d.Name, func(context.Context) error {
			cl = corpus.Clusters(d, loaded.ForDesign(d))
			return nil
		})
		pr.design[i] += dc
		for k := 0; k < oracleSeeds; k++ {
			oracle := corpus.Options{Seed: derive(rs.seed, fmt.Sprintf("reduce/%s/%d", d.Name, k)), Telemetry: tr}
			var red *corpus.Reduction
			dr, err := pr.timed(ctx, tr, "reduce", d.Name, func(context.Context) error {
				var err error
				red, err = corpus.Reduce(d, loaded, oracle)
				return err
			})
			pr.design[i] += dr
			pr.attempted++
			if err != nil || red.KillRetention() != 100 || red.CoverRetention() != 100 {
				pr.failed++
				if err != nil {
					pr.fail("reduce %s: %v", d.Name, err)
				} else {
					pr.fail("reduce %s: retention kills %.1f%% windows %.1f%%", d.Name, red.KillRetention(), red.CoverRetention())
				}
				continue
			}
			if len(cl) != red.Clusters {
				pr.fail("reduce %s: Clusters found %d clusters, Reduce %d", d.Name, len(cl), red.Clusters)
			}
			pr.monitors += len(red.Selected)
			pr.layer["corpus.selected"] += float64(len(red.Selected))
			pr.layer["corpus.collapsed"] += float64(red.Collapsed)
			pr.layer["corpus.candidates"] += float64(red.Candidates)
			pr.layer["corpus.vacuous"] += float64(red.Vacuous)
			pr.layer["corpus.total"] += float64(red.Total)
		}
	}
	pr.wall = time.Since(t0)
	pr.output = pr.monitors
	pr.layer["corpus.entries"] = float64(loaded.Len())
	pr.layer["corpus.dup_hits"] = float64(live.Stats().DupHits)
	if tr != nil {
		// Outside the pass wall: ingest the same results into a corpus with no
		// store, so the store's share of the first ingest can be separated.
		mem := corpus.New()
		t1 := time.Now()
		for _, res := range rs.mined {
			mem.IngestResult("run-a", res)
		}
		pr.layer["corpus.mem_ingest_ms"] = time.Since(t1).Seconds() * 1e3
	}
	return pr, nil
}
