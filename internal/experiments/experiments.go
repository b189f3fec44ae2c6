// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7). Each experiment returns a Table that the
// cmd/experiments tool renders and bench_test.go exercises; EXPERIMENTS.md
// records the measured values next to the paper's.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"goldmine/internal/assertion"
	"goldmine/internal/core"
	"goldmine/internal/coverage"
	"goldmine/internal/designs"
	"goldmine/internal/mc"
	"goldmine/internal/rtl"
	"goldmine/internal/sched"
	"goldmine/internal/sim"
	"goldmine/internal/telemetry"
)

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintln(w, "note: "+n)
	}
	fmt.Fprintln(w)
}

// Experiment is a registered experiment.
type Experiment struct {
	Name string
	Desc string
	Run  func() (*Table, error)
}

// CheckTimeout, when non-zero, bounds every formal check issued by an
// experiment (wired from cmd/experiments -check-timeout). Checks that exceed
// it degrade to bounded/unknown verdicts instead of stalling a table.
var CheckTimeout time.Duration

// Workers is the parallelism degree every experiment mines with (wired from
// cmd/experiments -j). The tables are identical for any value; only wall time
// changes.
var Workers int

// Telemetry, when non-nil, wires every engine the experiments create into one
// shared tracer (from cmd/experiments -telemetry / -metrics-summary). Tables
// are unaffected; the journal and counters are observational only.
var Telemetry *telemetry.Tracer

// sharedCache is one verdict cache spanning every engine the experiments
// create. Cache keys carry design and option fingerprints, so re-mining the
// same benchmark in a later experiment (the sweeps do this constantly) reuses
// decisive verdicts instead of re-running the model checker.
var sharedCache = sched.NewVerdictCache()

var registry []Experiment

func register(name, desc string, run func() (*Table, error)) {
	registry = append(registry, Experiment{Name: name, Desc: desc, Run: run})
}

// All returns the registered experiments sorted by name.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Get returns the named experiment.
func Get(name string) (*Experiment, error) {
	for i := range registry {
		if registry[i].Name == name {
			return &registry[i], nil
		}
	}
	var names []string
	for _, e := range All() {
		names = append(names, e.Name)
	}
	return nil, fmt.Errorf("unknown experiment %q (have %v)", name, names)
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

// moduleRun mines every key output of a benchmark and returns the per-output
// results plus the engine used.
type moduleRun struct {
	Bench   *designs.Benchmark
	Design  *rtl.Design
	Engine  *core.Engine
	Results []*core.OutputResult
	Seed    sim.Stimulus
}

// mineModule mines all key-output bits of the benchmark with the given seed.
func mineModule(b *designs.Benchmark, seed sim.Stimulus, maxIter int) (*moduleRun, error) {
	return mineModuleCfg(b, seed, maxIter, nil, nil)
}

// mineModuleCfg mines the benchmark with explicit targets ("name" = every
// bit, "name[3]" = one bit; nil = the benchmark's key outputs) and an
// optional model-checker option override.
func mineModuleCfg(b *designs.Benchmark, seed sim.Stimulus, maxIter int, targets []string, mcOpts *mc.Options) (*moduleRun, error) {
	d, err := b.Design()
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Window = b.Window
	if maxIter > 0 {
		cfg.MaxIterations = maxIter
	}
	if mcOpts != nil {
		cfg.MC = *mcOpts
	}
	if CheckTimeout > 0 {
		cfg.MC.CheckTimeout = CheckTimeout
	}
	cfg.Workers = Workers
	cfg.Cache = sharedCache
	eng, err := core.NewEngine(d, cfg)
	if err != nil {
		return nil, err
	}
	if Telemetry != nil {
		eng.SetTelemetry(Telemetry)
	}
	mr := &moduleRun{Bench: b, Design: d, Engine: eng, Seed: seed}
	outs := targets
	if outs == nil {
		outs = b.KeyOutputs
	}
	if len(outs) == 0 {
		for _, o := range d.Outputs() {
			outs = append(outs, o.Name)
		}
	}
	var tgts []core.Target
	for _, spec := range outs {
		name, bit := spec, -1
		if i := strings.IndexByte(spec, '['); i >= 0 && strings.HasSuffix(spec, "]") {
			name = spec[:i]
			if _, err := fmt.Sscanf(spec[i:], "[%d]", &bit); err != nil {
				return nil, fmt.Errorf("bad target spec %q", spec)
			}
		}
		sig := d.Signal(name)
		if sig == nil {
			return nil, fmt.Errorf("%s: no output %q", b.Name, name)
		}
		lo, hi := 0, sig.Width
		if bit >= 0 {
			lo, hi = bit, bit+1
		}
		for bb := lo; bb < hi; bb++ {
			tgts = append(tgts, core.Target{Output: sig, Bit: bb})
		}
	}
	// One scheduler run over every target bit: parallel when Workers > 1,
	// with results merged back in target order.
	res, err := eng.MineTargets(context.Background(), tgts, seed)
	if err != nil {
		return nil, err
	}
	mr.Results = res.Outputs
	return mr, nil
}

// mcSuiteMax caps the harvested batch per design so a wide design cannot
// turn a re-check workload into a soak test.
const mcSuiteMax = 32

// MCAssertionSuite mines a benchmark design once (sequentially, bounded
// iterations) and returns the harvested candidate assertions — proved,
// falsified, and unknown alike — as a realistic re-check workload. The batch
// is deterministic: mining is reproducible and the records keep discovery
// order.
func MCAssertionSuite(name string, maxIter int) (*rtl.Design, []*assertion.Assertion, error) {
	b, d, err := designs.Load(name, "")
	if err != nil {
		return nil, nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Window = b.Window
	cfg.Workers = 1
	if maxIter > 0 {
		cfg.MaxIterations = maxIter
	}
	if CheckTimeout > 0 {
		cfg.MC.CheckTimeout = CheckTimeout
	}
	eng, err := core.NewEngine(d, cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := eng.MineAll(context.Background(), seedOf(b))
	if err != nil {
		return nil, nil, err
	}
	var suite []*assertion.Assertion
	for _, out := range res.Outputs {
		for _, rec := range out.Proved {
			suite = append(suite, rec.Assertion)
		}
		for _, rec := range out.Failed {
			suite = append(suite, rec.Assertion)
		}
		for _, rec := range out.Unknown {
			suite = append(suite, rec.Assertion)
		}
	}
	if len(suite) > mcSuiteMax {
		suite = suite[:mcSuiteMax]
	}
	if len(suite) == 0 {
		return nil, nil, fmt.Errorf("%s: mining harvested no assertions", name)
	}
	return d, suite, nil
}

// maxIteration returns the highest iteration index reached by any output.
func (mr *moduleRun) maxIteration() int {
	m := 0
	for _, r := range mr.Results {
		for _, st := range r.Iterations {
			if st.NewCtx > 0 || st.NewProved > 0 {
				if st.Iteration > m {
					m = st.Iteration
				}
			}
		}
	}
	return m
}

// suiteUpTo returns seed + every ctx pattern discovered at iteration <= k.
// When the design has a synchronous reset input, the patterns are
// concatenated into one continuous test with a reset cycle between them —
// exactly how the paper folds counterexamples back into the directed test
// ("the series of inputs for each counterexample are simply added to the
// current input stimulation"). This keeps cross-pattern activity visible to
// toggle coverage while preserving each pattern's from-reset behaviour.
func (mr *moduleRun) suiteUpTo(k int) []sim.Stimulus {
	var parts []sim.Stimulus
	if len(mr.Seed) > 0 {
		parts = append(parts, mr.Seed)
	}
	for _, r := range mr.Results {
		for i, rec := range r.Failed {
			if rec.Iteration <= k && i < len(r.Ctx) {
				parts = append(parts, r.Ctx[i])
			}
		}
	}
	rst := mr.Design.Signal("rst")
	canJoin := len(mr.Design.Registers()) == 0 ||
		(rst != nil && rst.Kind == rtl.SigInput && rst.Width == 1)
	if !canJoin || len(parts) <= 1 {
		return parts
	}
	var joined sim.Stimulus
	for i, p := range parts {
		if i > 0 && len(mr.Design.Registers()) > 0 {
			joined = append(joined, sim.InputVec{"rst": 1})
		}
		joined = append(joined, p.Clone()...)
	}
	return []sim.Stimulus{joined}
}

// inputSpaceAt returns the mean input-space coverage across outputs at
// iteration k (coverage recorded at the nearest completed iteration <= k).
func (mr *moduleRun) inputSpaceAt(k int) float64 {
	if len(mr.Results) == 0 {
		return 0
	}
	total := 0.0
	for _, r := range mr.Results {
		cov := 0.0
		for _, st := range r.Iterations {
			if st.Iteration <= k {
				cov = st.InputSpaceCoverage
			}
		}
		total += cov
	}
	return total / float64(len(mr.Results))
}

// coverageAt measures module coverage of the cumulative suite at iteration k.
func (mr *moduleRun) coverageAt(k int) (coverage.Report, error) {
	return suiteCoverage(mr.Design, mr.suiteUpTo(k))
}

// suiteCoverage measures the coverage of a suite on the batch engine.
func suiteCoverage(d *rtl.Design, suite []sim.Stimulus) (coverage.Report, error) {
	col := coverage.New(d)
	if err := col.RunSuiteCompiled(suite); err != nil {
		return coverage.Report{}, err
	}
	return col.Report(), nil
}

// suiteCycles counts total stimulus cycles in a suite.
func suiteCycles(suite []sim.Stimulus) int {
	n := 0
	for _, s := range suite {
		n += len(s)
	}
	return n
}

func pct(f float64) string { return fmt.Sprintf("%.2f", 100*f) }

func seedOf(b *designs.Benchmark) sim.Stimulus {
	if b.Directed == nil {
		return nil
	}
	return b.Directed()
}
