// Package core implements the paper's contribution: counterexample-guided
// iterative refinement of decision trees for validation stimulus generation
// (Figure 3/4 of the paper). For each design output bit it:
//
//  1. simulates the seed stimulus and builds the windowed mining dataset
//     restricted to the output's logic cone,
//  2. builds a decision tree whose pure leaves are 100%-confidence candidate
//     assertions,
//  3. model-checks every candidate; true candidates become proven invariants,
//     false ones yield counterexample traces,
//  4. simulates each counterexample (Ctx_simulation), appends the violating
//     window to the dataset, and incrementally resplits only the failed leaf,
//  5. repeats until every leaf is proven (the final decision tree F_z) or the
//     iteration budget is exhausted.
//
// The accumulated counterexample stimuli are the generated validation
// patterns; together with the proven assertions they are the artifacts the
// paper argues achieve output-centric coverage closure.
//
// Every engine interaction — formal check, counterexample simulation, dataset
// append, incremental tree update — runs behind a recover() barrier. A panic
// or hard error in one check becomes a structured EngineError, the affected
// leaf is marked stuck, and mining continues on the remaining leaves, so a
// single hostile assertion can never lose the accumulated stimulus.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"goldmine/internal/assertion"
	"goldmine/internal/mc"
	"goldmine/internal/mine"
	"goldmine/internal/rtl"
	"goldmine/internal/sched"
	"goldmine/internal/sim"
	"goldmine/internal/simc"
	"goldmine/internal/telemetry"
	"goldmine/internal/trace"
)

// Config tunes the refinement engine.
type Config struct {
	// Window is the mining window length w (Section 2.1). Combinational
	// designs use 0.
	Window int
	// MaxIterations bounds refinement rounds per output bit.
	MaxIterations int
	// AddFullCtxTrace adds every window of a counterexample trace to the
	// dataset instead of only the violating window.
	AddFullCtxTrace bool
	// MaxChecks bounds the total formal checks per output bit (a safety
	// valve against runaway refinement on outputs with huge relevant
	// cones). 0 means the default of 4000.
	MaxChecks int
	// SignalCone falls back to the paper's signal-granular cone of
	// influence instead of the default bit-level analysis (ablation knob:
	// wide buses then contribute every bit as a split candidate).
	SignalCone bool
	// BatchedChecks implements the performance optimization suggested in
	// Section 7 of the paper: collect every candidate of an iteration,
	// check them all, and only then apply all counterexample rows to the
	// tree in a single incremental update. The default (false) applies
	// each counterexample as soon as it is found, matching the paper's
	// baseline implementation.
	BatchedChecks bool
	// Timeout bounds one MineOutput call by wall clock; zero means no
	// deadline. On expiry the loop stops cleanly, returning everything
	// proved so far with Interrupted set.
	Timeout time.Duration
	// IterationTimeout bounds a single refinement iteration. When a slice
	// expires, the remaining candidates of that iteration are deferred to
	// the next one (their leaves are NOT marked stuck).
	IterationTimeout time.Duration
	// Workers is the parallelism degree of MineAll/MineTargets: output-bit
	// mining jobs are spread over a task pool of this many workers,
	// and in BatchedChecks mode a batch's independent leaf checks fan out
	// over the same worker budget. <= 1 mines sequentially. Mining artifacts
	// (assertions, counterexample stimuli, iteration stats) are identical
	// for any Workers value; only wall time and scheduler telemetry change.
	Workers int
	// Cache optionally supplies a shared verdict cache (e.g. one cache
	// across the engines of an experiment sweep). Keys include design and
	// model-checker-option fingerprints, so sharing across engines and
	// designs is safe. Nil means a private per-engine cache.
	Cache *sched.VerdictCache
	// MC are the model checker limits.
	MC mc.Options
}

// DefaultConfig returns the settings used by the experiments.
func DefaultConfig() Config {
	return Config{
		Window:        1,
		MaxIterations: 64,
		MC:            mc.DefaultOptions(),
	}
}

// FormalChecker is the formal-verification boundary the engine drives. It is
// satisfied by *mc.Checker, whose CheckCtx decides each check on a throwaway
// session — the fresh reference the pooled sessions are tested against; tests
// also substitute hostile implementations to prove the engine fails soft.
type FormalChecker interface {
	CheckCtx(ctx context.Context, a *assertion.Assertion) (*mc.Result, error)
}

// Stages of the refinement loop where an engine fault can occur.
const (
	StageCheck      = "formal-check"
	StageCtxSim     = "ctx-simulation"
	StageDataset    = "dataset-append"
	StageTreeUpdate = "tree-update"
	// StageWorker marks a panic that escaped every per-check barrier and was
	// caught by the scheduler's whole-job barrier: the output's partial
	// result is replaced by a single fault record, and mining of the other
	// outputs continues.
	StageWorker = "worker"
)

// EngineError is a structured record of a fault (panic or hard error) isolated
// at an engine boundary. The refinement loop records it, marks the leaf stuck,
// and continues.
type EngineError struct {
	Stage     string // one of the Stage* constants
	Output    string // output signal being mined
	Assertion *assertion.Assertion
	Leaf      string // root path of the affected leaf ("var=val/...")
	Cause     error
}

func (e *EngineError) Error() string {
	a := "<none>"
	if e.Assertion != nil {
		a = e.Assertion.String()
	}
	return fmt.Sprintf("engine fault at %s (output %s, leaf %s, assertion %s): %v",
		e.Stage, e.Output, e.Leaf, a, e.Cause)
}

func (e *EngineError) Unwrap() error { return e.Cause }

// AssertionRecord tracks one checked assertion.
type AssertionRecord struct {
	Assertion *assertion.Assertion
	Status    mc.Status
	Method    string
	Iteration int
	// Elapsed is the wall time of the formal check.
	Elapsed time.Duration
	// Degraded marks a verdict weakened by budget pressure.
	Degraded bool
	// Err explains an Unknown status (mc.ErrBudgetExceeded, mc.ErrCanceled,
	// mc.ErrEngineInternal) — it distinguishes "unconverged because hard"
	// from "unconverged because crashed".
	Err error
}

// IterationStats records per-iteration progress (the deterministic metric of
// progress the paper highlights).
type IterationStats struct {
	Iteration  int
	Candidates int
	NewProved  int
	NewCtx     int
	// NewUnknown counts checks that returned no verdict (budget/cancel/fault)
	// this iteration; their leaves are stuck and will not be retried.
	NewUnknown int
	// Faults counts isolated engine faults (panics, hard errors) this
	// iteration; Degraded counts budget-weakened verdicts.
	Faults   int
	Degraded int
	Rows     int
	// CheckTime is the wall time spent inside formal checks this iteration.
	CheckTime time.Duration
	// InputSpaceCoverage is Σ 1/2^depth over assertions proved so far
	// (Section 7.1).
	InputSpaceCoverage float64
	// TreeLeaves and TreeNodes snapshot the incremental tree size.
	TreeLeaves, TreeNodes int
}

// OutputResult is the outcome of mining one output bit.
type OutputResult struct {
	Output string
	Bit    int
	Tree   *mine.Tree

	Proved  []AssertionRecord // includes bounded-proved; see Bounded flag
	Failed  []AssertionRecord // falsified candidates (with the iteration)
	Unknown []AssertionRecord // no verdict: budget exhausted, cancelled, or faulted
	Bounded int               // how many proved records were only bounded

	// Ctx are the counterexample stimuli in discovery order; each one starts
	// from reset and is a complete validation pattern.
	Ctx []sim.Stimulus

	// Errors are the isolated engine faults encountered while mining this
	// output. Each corresponds to a stuck leaf, not a lost run.
	Errors []*EngineError

	Iterations []IterationStats
	Converged  bool
	// Interrupted reports that the overall deadline or a cancellation cut
	// mining short; the partial results above are still valid.
	Interrupted bool
	StuckLeafs  int
	Elapsed     time.Duration

	// Verdict-cache telemetry for this output's checks: CacheHits were
	// served from a stored verdict, CacheShared waited on an identical
	// in-flight check (deduplicated concurrent work), CacheMisses ran the
	// model checker. Advisory only — which concurrent output scores the hit
	// for a shared candidate is a benign race, so these counters are
	// excluded from the determinism contract (see Result.Canonical).
	CacheHits, CacheShared, CacheMisses int
}

// InputSpaceCoverage is the paper's Σ 1/2^depth over proved assertions.
func (r *OutputResult) InputSpaceCoverage() float64 {
	cov := 0.0
	for _, rec := range r.Proved {
		cov += rec.Assertion.InputSpaceFraction()
	}
	if cov > 1 {
		cov = 1
	}
	return cov
}

// Assertions returns the proved assertions.
func (r *OutputResult) Assertions() []*assertion.Assertion {
	out := make([]*assertion.Assertion, len(r.Proved))
	for i, rec := range r.Proved {
		out[i] = rec.Assertion
	}
	return out
}

// SchedStats is the scheduler telemetry of one MineAll/MineTargets run. All
// of it is advisory: none of these numbers participate in the determinism
// contract (worker assignment and cache-hit attribution are benign races).
type SchedStats struct {
	// Workers is the resolved parallelism degree (1 = sequential).
	Workers int
	// Tasks is the number of output-bit mining jobs scheduled.
	Tasks int
	// WorkerPanics counts whole-job panics isolated by the worker barrier.
	WorkerPanics int64
	// ChecksDeduped counts formal checks that waited on an identical
	// in-flight check instead of running the model checker again.
	ChecksDeduped int64
	// CacheHits / CacheMisses count verdict-cache lookups over the run.
	CacheHits, CacheMisses int64
	// CacheHitRate is (hits + deduped) / lookups, 0 when no checks ran.
	CacheHitRate float64
}

// Result aggregates mining over several output bits.
type Result struct {
	Design  *rtl.Design
	Outputs []*OutputResult
	Seed    sim.Stimulus
	// Interrupted reports that mining stopped early on cancellation or
	// deadline; Outputs holds everything completed (or partially completed)
	// before the cut.
	Interrupted bool
	Elapsed     time.Duration
	// Sched is the scheduler/cache telemetry of the run (set by MineAll and
	// MineTargets in both sequential and parallel modes).
	Sched *SchedStats
}

// Suite returns the complete validation suite: the seed stimulus followed by
// every counterexample pattern (each runs from reset).
func (r *Result) Suite() []sim.Stimulus {
	var suite []sim.Stimulus
	if len(r.Seed) > 0 {
		suite = append(suite, r.Seed)
	}
	for _, o := range r.Outputs {
		suite = append(suite, o.Ctx...)
	}
	return suite
}

// Assertions returns all proved assertions across outputs.
func (r *Result) Assertions() []*assertion.Assertion {
	var out []*assertion.Assertion
	for _, o := range r.Outputs {
		out = append(out, o.Assertions()...)
	}
	return out
}

// Converged reports whether every mined output converged.
func (r *Result) Converged() bool {
	for _, o := range r.Outputs {
		if !o.Converged {
			return false
		}
	}
	return true
}

// Errors collects the isolated engine faults across outputs.
func (r *Result) Errors() []*EngineError {
	var out []*EngineError
	for _, o := range r.Outputs {
		out = append(out, o.Errors...)
	}
	return out
}

// Canonical renders the run's mining artifacts — everything the determinism
// contract covers — as a stable string: the same design, seed and
// configuration produce byte-identical output for any Workers value. Wall
// times and scheduler/cache telemetry are deliberately absent; comparing
// Canonical strings is how the tests and the bench harness verify -j 1 ≡ -j N.
func (r *Result) Canonical() string {
	b := &strings.Builder{}
	fmt.Fprintf(b, "design %s interrupted=%v\n", r.Design.Name, r.Interrupted)
	for _, o := range r.Outputs {
		fmt.Fprintf(b, "output %s[%d] converged=%v interrupted=%v bounded=%d stuck=%d faults=%d\n",
			o.Output, o.Bit, o.Converged, o.Interrupted, o.Bounded, o.StuckLeafs, len(o.Errors))
		writeRecs := func(kind string, recs []AssertionRecord) {
			for _, rec := range recs {
				fmt.Fprintf(b, "  %s it=%d %v %s\n", kind, rec.Iteration, rec.Status, rec.Assertion.Key())
			}
		}
		writeRecs("proved", o.Proved)
		writeRecs("failed", o.Failed)
		writeRecs("unknown", o.Unknown)
		for i, stim := range o.Ctx {
			fmt.Fprintf(b, "  ctx %d %s\n", i, canonicalStimulus(stim))
		}
		for _, st := range o.Iterations {
			fmt.Fprintf(b, "  iter %d cand=%d proved=%d ctx=%d unknown=%d faults=%d rows=%d leaves=%d nodes=%d cov=%.6f\n",
				st.Iteration, st.Candidates, st.NewProved, st.NewCtx, st.NewUnknown,
				st.Faults, st.Rows, st.TreeLeaves, st.TreeNodes, st.InputSpaceCoverage)
		}
	}
	return b.String()
}

// canonicalStimulus renders a stimulus with sorted input names per cycle
// (InputVec is a map; iteration order must not leak into the canonical form).
func canonicalStimulus(st sim.Stimulus) string {
	b := &strings.Builder{}
	for c, vec := range st {
		if c > 0 {
			b.WriteByte(';')
		}
		names := make([]string, 0, len(vec))
		for n := range vec {
			names = append(names, n)
		}
		sort.Strings(names)
		for i, n := range names {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, "%s=%d", n, vec[n])
		}
	}
	return b.String()
}

// Engine runs the refinement loop for one design.
type Engine struct {
	D       *rtl.Design
	Cfg     Config
	Checker *mc.Checker
	checker FormalChecker // overrides the pooled sessions when set
	// compiled holds the once-compiled batch program, shared by every fork
	// (compilation is per design, not per goroutine); machine is this
	// engine's private executor over it (simc.BatchMachine is
	// single-goroutine).
	compiled *compiledSim
	machine  *simc.BatchMachine
	// cycles counts simulated cycles (sim.cycles); nil when telemetry is off.
	cycles *telemetry.Counter

	// cache memoizes model-checker verdicts under canonical keys; shared by
	// every fork of this engine (and across engines when Config.Cache is
	// set). keyPrefix pins its entries to this design + checker options.
	cache     *sched.VerdictCache
	keyPrefix string
	// checkSem is the shared lane budget for intra-output batched-check
	// fan-out: Workers-1 tokens, so total check concurrency across all
	// in-flight mining jobs stays at the configured degree (each job always
	// keeps one lane of its own).
	checkSem chan struct{}
	// sessions pools incremental mc.Sessions. A Session is single-goroutine,
	// so each in-flight check takes one out, uses it exclusively, and returns
	// it; the channel is shared by every fork of this engine so warmed-up
	// solver states migrate between mining jobs. A check that panics simply never returns its session —
	// the possibly-corrupt state is dropped, not repooled.
	sessions chan *mc.Session
	// tel routes the refinement loop's telemetry (spans per output /
	// iteration / phase, mine.* counters). Nil when disabled: every
	// instrumentation site below is a nil-safe no-op, so the disabled path
	// costs one branch per phase, not per event. Set via SetTelemetry and
	// shared by every fork.
	tel *telemetry.Tracer
	mtr coreMetrics
}

// coreMetrics caches the mine.* counters so hot-loop accounting is an atomic
// add, not a registry lookup. Zero value (all nil) = disabled.
type coreMetrics struct {
	outputs, iterations, candidates, ctxFound, proved *telemetry.Counter
}

// NewEngine creates an engine (shared model-checker reachability and verdict
// caches across outputs).
func NewEngine(d *rtl.Design, cfg Config) (*Engine, error) {
	cache := cfg.Cache
	if cache == nil {
		cache = sched.NewVerdictCache()
	}
	lanes := cfg.Workers - 1
	if lanes < 0 {
		lanes = 0
	}
	e := &Engine{
		D:         d,
		Cfg:       cfg,
		Checker:   mc.NewWithOptions(d, cfg.MC),
		compiled:  &compiledSim{},
		cache:     cache,
		keyPrefix: sched.DesignFingerprint(d) + "|" + sched.OptionsFingerprint(cfg.MC) + "|",
		checkSem:  make(chan struct{}, lanes),
		// Capacity covers the worst-case concurrent checks (one per mining
		// worker plus every spare check lane) so sessions are parked, not lost.
		sessions: make(chan *mc.Session, cfg.Workers+lanes+2),
	}
	return e, nil
}

// SetTelemetry wires the engine — and transitively the model checker, SAT
// solvers, and simulator — into a tracer. Call it once, before mining starts
// (the wiring is not synchronized against in-flight checks); a nil tracer
// leaves telemetry disabled at the one-branch nil fast path. Forked engines
// inherit the wiring. Telemetry never alters mining artifacts: the journal is
// a side channel and the -j1 ≡ -jN determinism contract is unaffected.
func (e *Engine) SetTelemetry(tr *telemetry.Tracer) {
	e.tel = tr
	e.Checker.SetTelemetry(tr)
	if tr == nil {
		e.mtr = coreMetrics{}
		e.cycles = nil
		return
	}
	reg := tr.Registry()
	e.mtr = coreMetrics{
		outputs:    reg.Counter("mine.outputs"),
		iterations: reg.Counter("mine.iterations"),
		candidates: reg.Counter("mine.candidates"),
		ctxFound:   reg.Counter("mine.ctx_found"),
		proved:     reg.Counter("mine.proved"),
	}
	e.cycles = reg.Counter("sim.cycles")
}

// getSession checks a pooled incremental session out (or warms a new one up).
func (e *Engine) getSession() *mc.Session {
	select {
	case s := <-e.sessions:
		return s
	default:
		return e.Checker.NewSession()
	}
}

// putSession parks a session for the next check; a full pool drops it.
func (e *Engine) putSession(s *mc.Session) {
	select {
	case e.sessions <- s:
	default:
	}
}

// fork clones the engine for one parallel mining job: its own batch machine
// (executors are single-goroutine), sharing the design, the compiled
// program, the thread-safe model checker (and its reachability cache), the
// session pool, the verdict cache, and the check-lane budget.
func (e *Engine) fork() *Engine {
	fe := *e
	fe.machine = nil
	return &fe
}

// compiledSim is the fork-shared compile-once cell for the batch simulator.
type compiledSim struct {
	once sync.Once
	prog *simc.BatchProgram
	err  error
}

// compiledMachine returns this engine's batch executor, compiling the shared
// program on first use (under a sim.compile span).
func (e *Engine) compiledMachine(ctx context.Context) (*simc.BatchMachine, error) {
	e.compiled.once.Do(func() {
		_, sp := e.tel.StartSpan(ctx, "sim.compile", telemetry.String("design", e.D.Name))
		e.compiled.prog, e.compiled.err = simc.CompileBatch(e.D, simc.BatchOptions{})
		sp.End()
	})
	if e.compiled.err != nil {
		return nil, e.compiled.err
	}
	if e.machine == nil {
		e.machine = simc.NewBatchMachine(e.compiled.prog)
	}
	e.machine.Cycles = e.cycles
	return e.machine, nil
}

// simulate runs a stimulus as lane 0 of the batch machine. Its traces are
// bit-for-bit those of the sim.Simulator interpreter, the reference oracle
// (enforced by the differential tests in internal/simc).
func (e *Engine) simulate(ctx context.Context, stim sim.Stimulus) (*sim.Trace, error) {
	m, err := e.compiledMachine(ctx)
	if err != nil {
		return nil, err
	}
	traces, err := m.RunBatch([]sim.Stimulus{stim})
	if err != nil {
		return nil, err
	}
	return traces[0], nil
}

// SetChecker substitutes the formal checker for the pooled sessions — the
// fault-injection seam, and the way tests run every check fresh
// (SetChecker(mc.NewWithOptions(d, cfg.MC))). A nil fc restores the pooled
// sessions. The verdict cache is reset so stale verdicts from the previous
// checker cannot mask the substitute; in parallel runs the substitute must
// itself be safe for concurrent CheckCtx calls.
func (e *Engine) SetChecker(fc FormalChecker) {
	e.checker = fc
	e.cache = sched.NewVerdictCache()
}

// cacheKey derives the verdict-cache key of a candidate assertion.
func (e *Engine) cacheKey(a *assertion.Assertion) string {
	return e.keyPrefix + a.CanonicalKey()
}

// leafKey renders a leaf's root path for fault records.
func leafKey(lf mine.Leaf) string {
	if len(lf.Path) == 0 {
		return "root"
	}
	b := &strings.Builder{}
	for _, st := range lf.Path {
		fmt.Fprintf(b, "%d=%d/", st.Var, st.Value)
	}
	return b.String()
}

// checkOutcome carries one formal-check verdict from a check lane back to the
// sequential merge step of the iteration.
type checkOutcome struct {
	verdict *mc.Result
	outcome sched.Outcome
	eerr    *EngineError
}

// safeCheck runs one formal check behind a recover barrier, routed through the
// verdict cache. A panic or hard error becomes an EngineError;
// budget/cancellation outcomes arrive as an Unknown verdict from the checker
// itself (or are synthesized for a cancelled wait on a shared in-flight check)
// and pass through untouched. Safe for concurrent use by check lanes: it
// mutates nothing on the engine.
func (e *Engine) safeCheck(ctx context.Context, out string, cand mine.Candidate) (co checkOutcome) {
	engineFault := func(cause error) *EngineError {
		return &EngineError{
			Stage: StageCheck, Output: out, Assertion: cand.Assertion,
			Leaf:  leafKey(cand.Leaf),
			Cause: cause,
		}
	}
	defer func() {
		if r := recover(); r != nil {
			co.verdict = nil
			co.eerr = engineFault(fmt.Errorf("%w: panic: %v", mc.ErrEngineInternal, r))
		}
	}()
	ctx, psp := e.tel.StartSpan(ctx, "sched.cache_probe")
	defer psp.End()
	v, outcome, err := e.cache.Check(ctx, e.cacheKey(cand.Assertion), func() (*mc.Result, error) {
		// A substitute checker always wins; otherwise the check takes a
		// pooled session. A panicking session is never repooled (the deferred
		// recover above fires before putSession runs), so corrupt solver
		// state dies with the check.
		if e.checker != nil {
			return e.checker.CheckCtx(ctx, cand.Assertion)
		}
		s := e.getSession()
		r, err := s.CheckCtx(ctx, cand.Assertion)
		e.putSession(s)
		return r, err
	})
	co.outcome = outcome
	psp.Annotate(telemetry.String("outcome", outcome.String()))
	if err != nil {
		if errors.Is(err, mc.ErrCanceled) {
			// Cancelled while waiting on a shared in-flight check: report it
			// the way the checker itself reports cancellation, so the leaf
			// stays retryable instead of becoming a fault.
			co.verdict = &mc.Result{Status: mc.StatusUnknown, Cause: err}
			return co
		}
		co.eerr = engineFault(fmt.Errorf("%w: %v", mc.ErrEngineInternal, err))
		return co
	}
	if v == nil {
		co.eerr = engineFault(fmt.Errorf("%w: checker returned no verdict", mc.ErrEngineInternal))
		return co
	}
	if outcome == sched.Hit {
		// The stored verdict's wall time was paid by an earlier check; a hit
		// costs nothing.
		v.Elapsed = 0
	}
	co.verdict = v
	return co
}

// runChecks runs a batch of independent leaf checks, fanning out over the
// engine's shared check lanes whenever a token is free. The calling goroutine
// always keeps checking itself (it never blocks waiting for a lane), so every
// mining job makes progress even when other jobs hold all the spare tokens.
//
// Checks are dispatched in candidate order. Results are positional: the
// returned slice parallels dispatch, so which lane ran a check never leaks
// into artifacts.
func (e *Engine) runChecks(ctx context.Context, out string, dispatch []mine.Candidate) []checkOutcome {
	outcomes := make([]checkOutcome, len(dispatch))
	var wg sync.WaitGroup
	for i := range dispatch {
		select {
		case e.checkSem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-e.checkSem }()
				// safeCheck's recover barrier contains lane panics.
				outcomes[i] = e.safeCheck(ctx, out, dispatch[i])
			}(i)
		default:
			outcomes[i] = e.safeCheck(ctx, out, dispatch[i])
		}
	}
	wg.Wait()
	return outcomes
}

// safeCtxSim simulates a counterexample stimulus behind a recover barrier
// (hostile checkers can return malformed traces that trip the simulator).
func (e *Engine) safeCtxSim(ctx context.Context, stim sim.Stimulus) (tr *sim.Trace, err error) {
	defer func() {
		if r := recover(); r != nil {
			tr = nil
			err = fmt.Errorf("%w: panic: %v", mc.ErrEngineInternal, r)
		}
	}()
	return e.simulate(ctx, stim)
}

// safeAddRows applies an incremental tree update behind a recover barrier.
func safeAddRows(t *mine.Tree, rows []int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: panic: %v", mc.ErrEngineInternal, r)
		}
	}()
	return t.AddRows(rows)
}

// MineOutput runs counterexample-guided refinement for one bit of an output
// under a context and the configured deadlines. The seed stimulus may be empty
// (the zero-pattern limit study of Section 7.2: mining starts from the single
// assertion "output always 0"). Cancellation and deadline expiry are not
// errors: the loop stops at the next boundary and returns the partial result
// with Interrupted set. Use context.Background() when no cancellation is
// needed.
func (e *Engine) MineOutput(ctx context.Context, out *rtl.Signal, bit int, seed sim.Stimulus) (*OutputResult, error) {
	start := time.Now()
	ctx, osp := e.tel.StartSpan(ctx, "mine.output",
		telemetry.String("output", out.Name), telemetry.Int("bit", int64(bit)))
	defer osp.End()
	e.mtr.outputs.Inc()
	if e.Cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.Cfg.Timeout)
		defer cancel()
	}
	window := e.Cfg.Window
	if len(e.D.Registers()) == 0 {
		window = 0
	}
	ds, err := trace.NewDatasetCfg(e.D, out, bit, window, !e.Cfg.SignalCone)
	if err != nil {
		return nil, err
	}
	if len(seed) > 0 {
		ssp := osp.Child("sim.run", telemetry.Int("cycles", int64(len(seed))))
		tr, err := e.simulate(ctx, seed)
		ssp.End()
		if err != nil {
			return nil, err
		}
		if _, err := ds.AddTrace(tr, 0); err != nil {
			return nil, err
		}
	}
	bsp := osp.Child("mine.tree_update", telemetry.String("op", "build"))
	tree := mine.Build(ds)
	bsp.End()
	res := &OutputResult{Output: out.Name, Bit: bit, Tree: tree}

	maxIter := e.Cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = 64
	}
	maxChecks := e.Cfg.MaxChecks
	if maxChecks <= 0 {
		maxChecks = 4000
	}
	checks := 0
	fault := func(st *IterationStats, node *mine.Node, rec AssertionRecord, ee *EngineError) {
		node.Stuck = true
		res.Errors = append(res.Errors, ee)
		rec.Status = mc.StatusUnknown
		rec.Err = ee.Cause
		res.Unknown = append(res.Unknown, rec)
		st.Faults++
		st.NewUnknown++
	}
	for it := 1; it <= maxIter && checks < maxChecks; it++ {
		if ctx.Err() != nil {
			res.Interrupted = true
			break
		}
		itCtx, itCancel := ctx, context.CancelFunc(func() {})
		if e.Cfg.IterationTimeout > 0 {
			itCtx, itCancel = context.WithTimeout(ctx, e.Cfg.IterationTimeout)
		}
		isp := osp.Child("mine.iteration", telemetry.Int("iter", int64(it)))
		// Checks issued this iteration hang their spans off the iteration:
		// the span rides the context through the cache into the checker.
		itCtx = telemetry.WithSpan(itCtx, isp)
		e.mtr.iterations.Inc()
		csp := isp.Child("mine.candidates")
		cands := tree.Candidates()
		csp.End(telemetry.Int("count", int64(len(cands))))
		e.mtr.candidates.Add(int64(len(cands)))
		st := IterationStats{Iteration: it, Candidates: len(cands)}
		if len(cands) == 0 {
			itCancel()
			isp.End()
			break
		}
		var batchedRows []int
		// process merges one check verdict into the iteration state. It runs
		// only on the mining goroutine (never inside a check lane), so all
		// tree, dataset and result mutation stays single-threaded.
		process := func(cand mine.Candidate, co checkOutcome) {
			node := cand.Leaf.Node
			rec := AssertionRecord{Assertion: cand.Assertion, Iteration: it}
			switch co.outcome {
			case sched.Hit:
				res.CacheHits++
			case sched.Shared:
				res.CacheShared++
			default:
				res.CacheMisses++
			}
			if co.eerr != nil {
				fault(&st, node, rec, co.eerr)
				return
			}
			verdict := co.verdict
			rec.Status = verdict.Status
			rec.Method = verdict.Method
			rec.Elapsed = verdict.Elapsed
			rec.Degraded = verdict.Degraded
			st.CheckTime += verdict.Elapsed
			if verdict.Degraded {
				st.Degraded++
			}
			switch verdict.Status {
			case mc.StatusProved, mc.StatusBounded:
				node.Proved = true
				res.Proved = append(res.Proved, rec)
				if verdict.Status == mc.StatusBounded {
					res.Bounded++
				}
				st.NewProved++
				e.mtr.proved.Inc()
			case mc.StatusFalsified:
				// Ctx_simulation: concrete values for every cone signal. The
				// counterexample only counts once it replays cleanly — a
				// malformed trace from a faulty engine must not pollute the
				// validation suite.
				fsp := isp.Child("mine.ctx_feedback", telemetry.Int("cycles", int64(len(verdict.Ctx))))
				defer fsp.End()
				e.mtr.ctxFound.Inc()
				ctxTrace, err := e.safeCtxSim(ctx, verdict.Ctx)
				if err != nil {
					fault(&st, node, rec, &EngineError{
						Stage: StageCtxSim, Output: out.Name,
						Assertion: cand.Assertion, Leaf: leafKey(cand.Leaf),
						Cause: err,
					})
					return
				}
				var newRows []int
				if e.Cfg.AddFullCtxTrace {
					before := ds.Rows()
					if _, err := ds.AddTrace(ctxTrace, it); err != nil {
						fault(&st, node, rec, &EngineError{
							Stage: StageDataset, Output: out.Name,
							Assertion: cand.Assertion, Leaf: leafKey(cand.Leaf),
							Cause: err,
						})
						return
					}
					for r := before; r < ds.Rows(); r++ {
						newRows = append(newRows, r)
					}
				} else {
					r, err := ds.LastWindowRow(ctxTrace, it)
					if err != nil {
						fault(&st, node, rec, &EngineError{
							Stage: StageDataset, Output: out.Name,
							Assertion: cand.Assertion, Leaf: leafKey(cand.Leaf),
							Cause: err,
						})
						return
					}
					newRows = append(newRows, r)
				}
				res.Failed = append(res.Failed, rec)
				res.Ctx = append(res.Ctx, verdict.Ctx)
				st.NewCtx++
				if e.Cfg.BatchedChecks {
					batchedRows = append(batchedRows, newRows...)
				} else {
					tsp := isp.Child("mine.tree_update", telemetry.Int("rows", int64(len(newRows))))
					err := safeAddRows(tree, newRows)
					tsp.End()
					if err != nil {
						res.Errors = append(res.Errors, &EngineError{
							Stage: StageTreeUpdate, Output: out.Name,
							Assertion: cand.Assertion, Leaf: leafKey(cand.Leaf),
							Cause: err,
						})
						st.Faults++
					}
				}
			case mc.StatusUnknown:
				if itCtx.Err() != nil && (verdict.Cause == nil || mc.IsBudget(verdict.Cause)) {
					// The iteration (or overall) deadline expired mid-check,
					// not the per-check budget: the leaf is retryable.
					res.Unknown = append(res.Unknown, rec)
					st.NewUnknown++
					if ctx.Err() != nil {
						res.Interrupted = true
					}
					return
				}
				// A per-check budget verdict: retrying next iteration would
				// livelock, so the leaf is parked as stuck.
				node.Stuck = true
				rec.Err = verdict.Cause
				res.Unknown = append(res.Unknown, rec)
				st.NewUnknown++
			}
		}
		if e.Cfg.BatchedChecks {
			// Batched mode: the tree does not change until the whole batch has
			// been checked, so the dispatch set is fixed up front and the
			// independent leaf checks may fan out over idle check lanes.
			// Verdicts are merged in candidate order, keeping the artifacts
			// identical for any Workers value.
			var dispatch []mine.Candidate
			for _, cand := range cands {
				node := cand.Leaf.Node
				if !node.IsLeaf() || node.Proved || node.Stuck || !node.Pure() {
					continue
				}
				if checks >= maxChecks {
					break
				}
				checks++
				dispatch = append(dispatch, cand)
			}
			outcomes := e.runChecks(itCtx, out.Name, dispatch)
			for i, cand := range dispatch {
				process(cand, outcomes[i])
			}
			if ctx.Err() != nil {
				res.Interrupted = true
			}
		} else {
			for _, cand := range cands {
				node := cand.Leaf.Node
				// The tree changes under us as counterexamples land: skip
				// candidates whose leaf is gone or no longer pure.
				if !node.IsLeaf() || node.Proved || node.Stuck || !node.Pure() {
					continue
				}
				if checks >= maxChecks {
					break
				}
				if ctx.Err() != nil {
					res.Interrupted = true
					break
				}
				if itCtx.Err() != nil {
					// Iteration slice spent: defer the rest to the next round.
					break
				}
				checks++
				process(cand, e.safeCheck(itCtx, out.Name, cand))
				if res.Interrupted {
					break
				}
			}
		}
		itCancel()
		if len(batchedRows) > 0 {
			tsp := isp.Child("mine.tree_update", telemetry.Int("rows", int64(len(batchedRows))))
			err := safeAddRows(tree, batchedRows)
			tsp.End()
			if err != nil {
				res.Errors = append(res.Errors, &EngineError{
					Stage: StageTreeUpdate, Output: out.Name, Cause: err,
				})
				st.Faults++
			}
		}
		st.Rows = ds.Rows()
		st.InputSpaceCoverage = res.InputSpaceCoverage()
		ts := tree.Stats()
		st.TreeLeaves, st.TreeNodes = ts.Leaves, ts.Nodes
		res.Iterations = append(res.Iterations, st)
		isp.End(
			telemetry.Int("proved", int64(st.NewProved)),
			telemetry.Int("ctx", int64(st.NewCtx)),
			telemetry.Int("unknown", int64(st.NewUnknown)),
		)
		if res.Interrupted || tree.Converged() {
			break
		}
	}
	if ctx.Err() != nil {
		res.Interrupted = true
	}
	res.Converged = tree.Converged() && !res.Interrupted
	res.StuckLeafs = tree.Stats().StuckLeaves
	res.Elapsed = time.Since(start)
	osp.Annotate(
		telemetry.Bool("converged", res.Converged),
		telemetry.Bool("interrupted", res.Interrupted),
		telemetry.Int("proved", int64(len(res.Proved))),
		telemetry.Int("ctx", int64(len(res.Ctx))),
	)
	return res, nil
}

// MineAll mines every bit of every design output with a shared seed under a
// context. On cancellation or deadline it stops between (or inside) outputs
// and returns the partial result with Interrupted set rather than an error.
func (e *Engine) MineAll(ctx context.Context, seed sim.Stimulus) (*Result, error) {
	return e.MineTargets(ctx, e.Targets(), seed)
}

// Target names one output bit to mine: one independent job of a
// MineTargets run.
type Target struct {
	Output *rtl.Signal
	Bit    int
}

// Targets lists every output bit of the design in declaration order — the
// full job set of MineAll.
func (e *Engine) Targets() []Target {
	var ts []Target
	for _, out := range e.D.Outputs() {
		for bit := 0; bit < out.Width; bit++ {
			ts = append(ts, Target{Output: out, Bit: bit})
		}
	}
	return ts
}

// mineOutputSafe is MineOutput behind a whole-job recover barrier: a panic
// that escapes every per-check barrier (a hostile checker corrupting engine
// state, a bug in the miner itself) degrades only this output — the result is
// replaced by a single StageWorker fault record — and never takes down the
// run or the scheduler.
func (e *Engine) mineOutputSafe(ctx context.Context, out *rtl.Signal, bit int, seed sim.Stimulus) (or *OutputResult, err error) {
	name := "<nil>"
	if out != nil {
		name = out.Name
	}
	defer func() {
		if r := recover(); r != nil {
			err = nil
			or = &OutputResult{Output: name, Bit: bit, Errors: []*EngineError{{
				Stage: StageWorker, Output: name,
				Cause: fmt.Errorf("%w: panic: %v", mc.ErrEngineInternal, r),
			}}}
		}
	}()
	return e.MineOutput(ctx, out, bit, seed)
}

// MineTargets mines the given output bits under a context. The jobs run on
// a task pool of Cfg.Workers workers (at least one), each worker on its own
// fork of the engine with its own batch machine; results are merged
// positionally, so the mining artifacts are identical for any Workers value.
// On cancellation or deadline the pool drains cleanly: jobs never started are
// excluded from Outputs, running jobs stop at their next boundary and
// contribute their partial results, and Interrupted is set.
func (e *Engine) MineTargets(ctx context.Context, targets []Target, seed sim.Stimulus) (*Result, error) {
	start := time.Now()
	ctx, rsp := e.tel.StartSpan(ctx, "mine.run",
		telemetry.String("design", e.D.Name), telemetry.Int("targets", int64(len(targets))))
	defer rsp.End()
	res := &Result{Design: e.D, Seed: seed}
	cacheBefore := e.cache.Stats()
	workers := sched.Workers(max(e.Cfg.Workers, 1), len(targets))
	forks := make([]*Engine, workers)
	for w := range forks {
		forks[w] = e.fork()
	}

	outs := make([]*OutputResult, len(targets))
	errs := make([]error, len(targets))
	tasks := make([]sched.Task, len(targets))
	for i := range targets {
		i := i
		t := targets[i]
		tasks[i] = sched.Task{ID: i, Run: func(jctx context.Context, w int) {
			outs[i], errs[i] = forks[w].mineOutputSafe(jctx, t.Output, t.Bit, seed)
		}}
	}
	st := sched.RunTasks(ctx, workers, tasks, func(t sched.Task, pe *sched.PanicError) {
		// Backstop only: mineOutputSafe's own barrier catches job panics, so
		// this fires just for faults in the task closure itself.
		tg := targets[t.ID]
		outs[t.ID] = &OutputResult{Output: tg.Output.Name, Bit: tg.Bit, Errors: []*EngineError{{
			Stage: StageWorker, Output: tg.Output.Name,
			Cause: fmt.Errorf("%w: panic: %v", mc.ErrEngineInternal, pe.Value),
		}}}
	})
	for i, t := range targets {
		if errs[i] != nil {
			return nil, fmt.Errorf("mining %s[%d]: %w", t.Output.Name, t.Bit, errs[i])
		}
		if outs[i] == nil {
			// Cancelled before the job started: nothing mined, nothing merged.
			res.Interrupted = true
			continue
		}
		res.Outputs = append(res.Outputs, outs[i])
		if outs[i].Interrupted {
			res.Interrupted = true
		}
	}
	if ctx.Err() != nil {
		res.Interrupted = true
	}
	e.finishSched(res, &SchedStats{
		Workers:      st.Workers,
		Tasks:        st.Tasks,
		WorkerPanics: st.Panics,
	}, cacheBefore)
	res.Elapsed = time.Since(start)
	return res, nil
}

// finishSched attaches the run's scheduler telemetry, deriving cache counters
// from the delta of the shared cache's snapshots. With a cache shared across
// engines the delta can include concurrent foreign lookups — advisory numbers,
// see SchedStats.
func (e *Engine) finishSched(res *Result, ss *SchedStats, before sched.CacheStats) {
	after := e.cache.Stats()
	ss.CacheHits = after.Hits - before.Hits
	ss.ChecksDeduped = after.Shared - before.Shared
	ss.CacheMisses = after.Misses - before.Misses
	if n := ss.CacheHits + ss.ChecksDeduped + ss.CacheMisses; n > 0 {
		ss.CacheHitRate = float64(ss.CacheHits+ss.ChecksDeduped) / float64(n)
	}
	res.Sched = ss
}

// MineOutputByName resolves the output by name and mines it under a context.
func (e *Engine) MineOutputByName(ctx context.Context, name string, bit int, seed sim.Stimulus) (*OutputResult, error) {
	out := e.D.Signal(name)
	if out == nil {
		return nil, fmt.Errorf("no signal %q in design %s", name, e.D.Name)
	}
	if out.Kind != rtl.SigOutput && !out.IsState {
		return nil, fmt.Errorf("signal %q is not an output or register", name)
	}
	return e.MineOutput(ctx, out, bit, seed)
}
