// Package mc is the formal verification engine of the GoldMine reproduction,
// standing in for the SMV / Cadence IFV model checkers used in the paper. It
// decides whether a mined assertion holds on all reachable behaviour of a
// design and produces a concrete counterexample stimulus when it does not.
//
// Two engines are provided and selected automatically:
//
//   - An explicit-state engine that enumerates the reachable state space by
//     breadth-first search and checks every window of behaviour from every
//     reachable state, 64 enumerated items per step on the simc batch
//     engine. It is exact (same verdicts SMV would give) and is used
//     whenever the design's state and input bit counts are small enough.
//   - A SAT-based engine built on the cnf.Unroller: bounded model checking
//     from the reset state for falsification, and k-induction for proof. If
//     the BMC bound is exhausted and induction does not converge the verdict
//     is StatusBounded ("no counterexample up to depth D"), which the
//     refinement loop treats as true while recording the bound. A check runs
//     as the reach obligation of its violation, on the same two ladders
//     Session.Reach and Session.ProveUnreachable use (session.go).
//
// # Concurrency contract
//
// A *Checker is safe for concurrent CheckCtx/Check calls from any number of
// goroutines: every check runs on a throwaway Session of its own and
// takes its own explicit-state batch machine from a pool (no scratch buffers
// are shared between in-flight checks), the compiled 64-lane program those
// machines run is built once and is immutable, the lazily computed
// reachability fixpoint is built once under an internal lock, and the
// exported statistics counters are updated under another. The first check
// to need the reachability cache pays for its construction out of its own
// budget; concurrent checks block on the lock and then read the immutable
// result for free. The exported statistics fields (Checks, TotalTime)
// are written under the internal lock but are plain fields — read them only
// when no check is in flight. The package has no mutable package-level
// state (only sentinel error values).
package mc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"goldmine/internal/assertion"
	"goldmine/internal/cnf"
	"goldmine/internal/rtl"
	"goldmine/internal/sat"
	"goldmine/internal/sim"
	"goldmine/internal/simc"
	"goldmine/internal/telemetry"
)

// Status is the verdict for an assertion.
type Status int

// Verdicts. Budget pressure moves a verdict only downward along
// proved -> bounded -> unknown; it can never flip falsified to proved or
// vice versa (soundness under budgets, tested in budget_test.go).
const (
	StatusProved Status = iota
	StatusFalsified
	StatusBounded // no counterexample up to the BMC depth; induction inconclusive
	StatusUnknown // budget exhausted or cancelled before any claim could be made
)

func (s Status) String() string {
	switch s {
	case StatusProved:
		return "proved"
	case StatusFalsified:
		return "falsified"
	case StatusBounded:
		return "bounded"
	default:
		return "unknown"
	}
}

// Error taxonomy for budget-limited checking. Callers distinguish
// "unconverged because the problem is hard" (ErrBudgetExceeded),
// "unconverged because the caller gave up" (ErrCanceled), and "unconverged
// because an engine crashed" (ErrEngineInternal, attached by the core
// recover barrier).
var (
	// ErrBudgetExceeded: the per-check wall-clock or work budget ran out.
	ErrBudgetExceeded = errors.New("mc: check budget exceeded")
	// ErrCanceled: the caller's context was cancelled mid-check.
	ErrCanceled = errors.New("mc: check cancelled")
	// ErrEngineInternal: an engine panicked or misbehaved; the fault was
	// isolated at the engine boundary.
	ErrEngineInternal = errors.New("mc: engine internal fault")
)

// IsBudget reports whether err belongs to the budget/cancellation taxonomy
// (as opposed to a hard engine failure).
func IsBudget(err error) bool {
	return errors.Is(err, ErrBudgetExceeded) || errors.Is(err, ErrCanceled)
}

// Result is the outcome of checking one assertion.
type Result struct {
	Status Status
	// Ctx is the counterexample input stimulus from reset (only when
	// falsified). Simulating it violates the assertion in its final window.
	Ctx sim.Stimulus
	// Method names the engine that produced the verdict.
	Method string
	// Depth is the relevant bound: BFS diameter, BMC depth, or induction k.
	Depth int
	// Elapsed is the wall time of the check.
	Elapsed time.Duration
	// Degraded marks a verdict weakened by budget pressure: a proof attempt
	// was cut short and only a bounded claim (or none) survives.
	Degraded bool
	// Cause explains StatusUnknown or a degraded verdict: ErrBudgetExceeded
	// or ErrCanceled, possibly wrapped with engine detail.
	Cause error
}

// Options tune the checker.
type Options struct {
	// MaxStateBits is the explicit-state engine limit on total register bits.
	MaxStateBits int
	// MaxInputBits limits input bits per cycle for explicit transition
	// enumeration.
	MaxInputBits int
	// MaxWindowBits limits inputBits*windowLength for explicit property
	// windows.
	MaxWindowBits int
	// MaxExplicitBits bounds stateBits + free window bits: the explicit
	// engine performs at most 2^MaxExplicitBits window simulations per
	// assertion check.
	MaxExplicitBits int
	// MaxBMCDepth bounds SAT-based bounded model checking.
	MaxBMCDepth int
	// MaxInduction bounds the k of k-induction.
	MaxInduction int
	// CheckTimeout bounds the wall-clock time of one Check call; 0 means no
	// limit. The budget is sliced across engines: the explicit-state engine
	// gets at most half (falling back to SAT on exhaustion), and within the
	// SAT engine BMC gets 60% with k-induction taking the remainder.
	CheckTimeout time.Duration
	// MaxWork bounds the deterministic work of one Check call: SAT
	// propagations plus explicit-state window simulations, drawn from a
	// single shared pool. 0 means no limit. Unlike CheckTimeout this budget
	// is reproducible, which the degradation tests rely on.
	MaxWork int64
}

// DefaultOptions returns sensible limits for benchmark-scale designs.
func DefaultOptions() Options {
	return Options{
		MaxStateBits:    16,
		MaxInputBits:    12,
		MaxWindowBits:   20,
		MaxExplicitBits: 22,
		MaxBMCDepth:     24,
		MaxInduction:    12,
	}
}

// Checker verifies assertions against one design, caching reachability
// analysis across checks. It is safe for concurrent use; see the package
// comment for the exact contract.
type Checker struct {
	d    *rtl.Design
	opts Options

	// Explicit-state cache: reachMu guards the one-time fixpoint
	// construction (and its error memo); the *reachability itself is
	// immutable once published. ReachBuilds counts fixpoint constructions —
	// it stays at 1 however many checks share the cache.
	reachMu     sync.Mutex
	reach       *reachability
	ReachBuilds int

	// The explicit engine's 64-lane program, compiled on first use and
	// immutable after, and the pool of machines executing it: machines are
	// single-goroutine, so each concurrent check takes its own.
	progOnce sync.Once
	prog     *simc.BatchProgram
	progErr  error
	machPool sync.Pool

	// Statistics, written under statMu. Read them only between checks (no
	// call in flight).
	statMu      sync.Mutex
	Checks      int
	TotalTime   time.Duration
	ExplicitOK  bool
	explicitErr error

	// Telemetry (optional, set once before checks start via SetTelemetry):
	// per-check spans parented on the caller's context span, degradation
	// outcome counters, and the solver statistics hookup handed to every
	// solver this checker (or its Sessions) builds. All nil when disabled —
	// the instrumentation sites are nil-safe no-ops.
	tel  *telemetry.Tracer
	satC *sat.SolveCounters
	mtr  mcMetrics
}

// mcMetrics caches the mc.* counters so the per-check accounting is atomic
// adds, not registry lookups. The zero value (all nil) is the disabled state.
type mcMetrics struct {
	checks, proved, falsified, bounded, unknown, degraded *telemetry.Counter
	explicitSims                                          *telemetry.Counter
	ctxProbes                                             *telemetry.Counter
	solveWork                                             *telemetry.Histogram
}

// SetTelemetry wires the checker (and every Session created from it) into a
// tracer: per-check "mc.check" spans carrying the degradation-ladder outcome,
// mc.* verdict counters, and sat.* solver counters. Must be called before any
// check is issued; a nil tracer leaves telemetry disabled.
func (c *Checker) SetTelemetry(tr *telemetry.Tracer) {
	c.tel = tr
	if tr == nil {
		c.satC = nil
		c.mtr = mcMetrics{}
		return
	}
	reg := tr.Registry()
	c.satC = sat.NewSolveCounters(reg)
	c.mtr = mcMetrics{
		checks:       reg.Counter("mc.checks"),
		ctxProbes:    reg.Counter("mc.ctx_canon_probes"),
		proved:       reg.Counter("mc.proved"),
		falsified:    reg.Counter("mc.falsified"),
		bounded:      reg.Counter("mc.bounded"),
		unknown:      reg.Counter("mc.unknown"),
		degraded:     reg.Counter("mc.degraded"),
		explicitSims: reg.Counter("mc.explicit_window_sims"),
		solveWork:    reg.Histogram("mc.solve_work"),
	}
}

// newSolver builds a SAT solver with the checker's telemetry hookup.
func (c *Checker) newSolver() *sat.Solver {
	s := sat.New()
	s.Counters = c.satC
	return s
}

// New creates a checker with default options.
func New(d *rtl.Design) *Checker { return NewWithOptions(d, DefaultOptions()) }

// NewWithOptions creates a checker.
func NewWithOptions(d *rtl.Design, opts Options) *Checker {
	c := &Checker{d: d, opts: opts}
	c.ExplicitOK = d.StateBits() <= opts.MaxStateBits && d.InputBits() <= opts.MaxInputBits
	return c
}

// Design returns the design under check.
func (c *Checker) Design() *rtl.Design { return c.d }

// ---------------------------------------------------------------------------
// Check budgets
// ---------------------------------------------------------------------------

// budget is the resource envelope of one Check call: a context, an optional
// wall-clock deadline, and an optional shared work pool (SAT propagations +
// explicit window simulations). Engines consume from it sequentially; slices
// narrow the deadline so one engine cannot starve its successors.
type budget struct {
	ctx      context.Context
	deadline time.Time // zero = none
	workLeft *int64    // nil = unlimited; shared across engines of one check
	// spent accumulates the SAT propagations consumed under this budget (a
	// pointer so slices and quiet views feed the same total). A completed
	// check observes it into the mc.solve_work histogram; always non-nil for
	// budgets built by newBudget.
	spent *int64
	ticks int64 // tick counter rate-limiting clock/context polls
	// sp is the enclosing "mc.check" span; solve() and the engines hang their
	// phase spans off it. Nil when telemetry is disabled (or quieted for the
	// counterexample-minimization probe storm, see quiet).
	sp *telemetry.Span
}

// span opens a telemetry child span of the check span (nil-safe).
func (b *budget) span(name string, attrs ...telemetry.Attr) *telemetry.Span {
	return b.sp.Child(name, attrs...)
}

// quiet returns a view of the budget that emits no per-solve spans. The
// counterexample canonicalization loop issues hundreds of micro-solves per
// falsification; journaling each would cost more than the solves. The
// context, deadline, and work pool are shared (the pointer aliases).
func (b *budget) quiet() *budget {
	nb := *b
	nb.sp = nil
	return &nb
}

// newBudget derives the envelope for one check from the options and context.
func (c *Checker) newBudget(ctx context.Context) *budget {
	b := &budget{ctx: ctx, spent: new(int64)}
	if c.opts.CheckTimeout > 0 {
		b.deadline = time.Now().Add(c.opts.CheckTimeout)
	}
	if d, ok := ctx.Deadline(); ok && (b.deadline.IsZero() || d.Before(b.deadline)) {
		b.deadline = d
	}
	if c.opts.MaxWork > 0 {
		w := c.opts.MaxWork
		b.workLeft = &w
	}
	return b
}

// active reports whether any budget source is live (the fast path when
// budgets are disabled skips all polling).
func (b *budget) active() bool {
	return b.ctx.Done() != nil || !b.deadline.IsZero() || b.workLeft != nil
}

// err reports why the budget is exhausted, or nil while it is not.
func (b *budget) err() error {
	if e := b.ctx.Err(); e != nil {
		if errors.Is(e, context.Canceled) {
			return fmt.Errorf("%w: %v", ErrCanceled, e)
		}
		return fmt.Errorf("%w: %v", ErrBudgetExceeded, e)
	}
	if b.workLeft != nil && *b.workLeft <= 0 {
		return fmt.Errorf("%w: work pool drained", ErrBudgetExceeded)
	}
	if !b.deadline.IsZero() && time.Now().After(b.deadline) {
		return fmt.Errorf("%w: deadline passed", ErrBudgetExceeded)
	}
	return nil
}

// charge deducts n work units from the shared pool.
func (b *budget) charge(n int64) {
	if b.workLeft != nil {
		*b.workLeft -= n
	}
}

// tick charges one unit of explicit-engine work and polls the budget. Pool
// exhaustion is detected immediately (making work budgets deterministic even
// on tiny designs); the clock and context are consulted every 1024 ticks.
func (b *budget) tick() error {
	if b.workLeft != nil {
		*b.workLeft--
		if *b.workLeft < 0 {
			return fmt.Errorf("%w: work pool drained", ErrBudgetExceeded)
		}
	}
	b.ticks++
	if b.ticks&1023 == 0 {
		return b.err()
	}
	return nil
}

// slice returns a view of the budget whose deadline consumes at most the
// given fraction of the remaining wall time. The context and work pool are
// shared: work drawn by the slice is gone for everyone.
func (b *budget) slice(frac float64) *budget {
	nb := *b
	if !b.deadline.IsZero() {
		if rem := time.Until(b.deadline); rem > 0 {
			nb.deadline = time.Now().Add(time.Duration(float64(rem) * frac))
		}
	}
	return &nb
}

// solve runs one budgeted SAT call, charging the pool for the propagations
// consumed. An Unknown verdict comes back with the mapped taxonomy error.
// scope yields the solve's decision scope (sat.Solver.SolveScoped; nil
// decides on every variable); the solver asks for it only if it decides.
func (b *budget) solve(s *sat.Solver, scope func() []int, assumps ...sat.Lit) (sat.Status, error) {
	// Reset per-call limits first: a Session reuses one solver across many
	// budgets, and a stale MaxPropagations from a previous budgeted check
	// would silently cap an unbudgeted one.
	s.Deadline = b.deadline
	s.MaxPropagations = 0
	if b.workLeft != nil {
		if *b.workLeft <= 0 {
			return sat.Unknown, fmt.Errorf("%w: work pool drained", ErrBudgetExceeded)
		}
		s.MaxPropagations = *b.workLeft
	}
	before := s.Propagations
	sp := b.span("sat.solve")
	st := s.SolveScoped(b.ctx, scope, assumps...)
	sp.End(
		telemetry.String("result", st.String()),
		telemetry.Int("props", s.Propagations-before),
	)
	b.charge(s.Propagations - before)
	if b.spent != nil {
		*b.spent += s.Propagations - before
	}
	if st == sat.Unknown {
		if cause := s.StopCause(); cause != nil {
			if errors.Is(cause, context.Canceled) {
				return st, fmt.Errorf("%w: %v", ErrCanceled, cause)
			}
			return st, fmt.Errorf("%w: %v", ErrBudgetExceeded, cause)
		}
	}
	return st, nil
}

// solveQuery runs one query on a reset-constrained unrolling — a BMC window
// or a reach obligation, whose formula is definitional apart from level-0
// units — deciding only on the Tseitin cone of its assumptions. The cone is
// computed only if the solve decides. After a Sat verdict the scope is
// returned for canonicalStim (computed then if the solve did not decide):
// its probes only add cone-input literals to the same assumptions, so they
// reuse it. A k-induction step scopes itself (Session.inductionLadder): its
// live activation-guarded hypotheses define no gate, so their literals join
// the step's assumptions as cone roots.
func (b *budget) solveQuery(u *cnf.Unroller, assumps []sat.Lit) (sat.Status, []int, error) {
	var scope []int
	st, err := b.solve(u.S, func() []int {
		scope = u.ConeVars(assumps)
		return scope
	}, assumps...)
	if st == sat.Sat && scope == nil {
		scope = u.ConeVars(assumps)
	}
	return st, scope, err
}

// Check decides the assertion, producing a counterexample when false.
func (c *Checker) Check(a *assertion.Assertion) (*Result, error) {
	return c.CheckCtx(context.Background(), a)
}

// CheckCtx decides the assertion under a context and the configured budgets.
// Cancellation or budget exhaustion never returns an error: the verdict
// degrades along proved -> bounded -> unknown and the cause is recorded in
// Result.Cause, so callers always receive a usable (if weaker) answer.
//
// The check runs on a throwaway Session: the SAT engines build fresh solver
// states for this one check and drop them after it. A pooled Session reaches
// the same verdicts and counterexamples with less encoding work.
func (c *Checker) CheckCtx(ctx context.Context, a *assertion.Assertion) (*Result, error) {
	return c.checkWith(ctx, a, c.NewSession())
}

// checkWith wraps one check on s with statistics accounting and the budget
// envelope.
func (c *Checker) checkWith(ctx context.Context, a *assertion.Assertion, s *Session) (*Result, error) {
	start := time.Now()
	c.statMu.Lock()
	c.Checks++
	c.statMu.Unlock()
	c.mtr.checks.Inc()
	b := c.newBudget(ctx)
	var sp *telemetry.Span
	if c.tel != nil {
		_, sp = c.tel.StartSpan(ctx, "mc.check", telemetry.String("assertion", a.String()))
		b.sp = sp
	}
	var res *Result
	err := s.dispatch(func() (err error) {
		res, err = s.route(b, a)
		return err
	})
	switch {
	case err == nil:
		c.mtr.solveWork.Observe(*b.spent)
	case !IsBudget(err):
		sp.End(telemetry.String("error", err.Error()))
		return nil, err
	default:
		// Budget died before any engine could make a claim.
		res = &Result{Status: StatusUnknown, Method: "none", Degraded: true, Cause: err}
	}
	res.Elapsed = time.Since(start)
	c.statMu.Lock()
	c.TotalTime += res.Elapsed
	c.statMu.Unlock()
	if sp != nil {
		sp.End(
			telemetry.String("status", res.Status.String()),
			telemetry.String("method", res.Method),
			telemetry.Int("depth", int64(res.Depth)),
			telemetry.Bool("degraded", res.Degraded),
		)
		// Degradation-ladder outcome counters.
		switch res.Status {
		case StatusProved:
			c.mtr.proved.Inc()
		case StatusFalsified:
			c.mtr.falsified.Inc()
		case StatusBounded:
			c.mtr.bounded.Inc()
		default:
			c.mtr.unknown.Inc()
		}
		if res.Degraded {
			c.mtr.degraded.Inc()
		}
	}
	return res, nil
}

// propExpr builds the rtl expression "signal == value" (or "signal[bit] ==
// value" for bit propositions).
func propExpr(d *rtl.Design, p assertion.Prop) (rtl.Expr, error) {
	sig := d.Signal(p.Signal)
	if sig == nil {
		return nil, fmt.Errorf("assertion references unknown signal %q", p.Signal)
	}
	var lhs rtl.Expr = &rtl.Ref{Sig: sig}
	width := sig.Width
	if p.Bit >= 0 {
		if p.Bit >= sig.Width {
			return nil, fmt.Errorf("assertion bit %s[%d] out of range (width %d)", p.Signal, p.Bit, sig.Width)
		}
		if sig.Width > 1 {
			lhs = &rtl.Select{X: lhs, Bit: p.Bit}
		}
		width = 1
	}
	return &rtl.Binary{
		Op: rtl.OpEq,
		A:  lhs,
		B:  rtl.NewConst(p.Value, width),
		W:  1,
	}, nil
}

// propVal extracts the proposition's observed value from a signal value.
func propVal(p assertion.Prop, sig *rtl.Signal, v uint64) uint64 {
	if p.Bit >= 0 {
		return (v >> uint(p.Bit)) & 1
	}
	return v & rtl.Mask(sig.Width)
}
