// Directed stimulus generation: the closure engine that aims input vectors at
// what is not yet covered. Each coverage hole (internal/holes) becomes a
// reachability obligation over the CNF unrolling — branch arm: path condition
// true at some frame; toggle edge: the bit differs across adjacent frames;
// FSM arc: the state pair at adjacent frames — solved on a persistent
// mc.Session so holes of one design share unrolled frames and learned
// clauses. A SAT witness decodes into the canonical (lex-min) stimulus; on
// bounded-UNSAT or budget exhaustion the engine falls back to 64-lane batched
// fuzzing focused on the hole's cone inputs. The outer loop (CloseCoverage)
// re-simulates, re-collects, drops what closed, re-ranks, and iterates.
//
// Determinism: hole attempts are sharded round-robin over the sched pool and
// merged positionally; Reach verdicts and canonical witnesses are properties
// of the formula (not solver history), and fuzz seeds derive from the hole's
// rank index (not the worker) — so -j1 and -jN produce byte-identical suites
// whenever the per-check budgets are deterministic (the same caveat as the
// mining pipeline: wall-clock budgets trade determinism for liveness).
package stimgen

import (
	"context"
	"fmt"
	"math/rand"

	"goldmine/internal/coverage"
	"goldmine/internal/holes"
	"goldmine/internal/mc"
	"goldmine/internal/rtl"
	"goldmine/internal/sim"
	"goldmine/internal/simc"
	"goldmine/internal/telemetry"
)

// DirectedOptions configures DirectedFromHoles.
type DirectedOptions struct {
	// MaxDepth bounds the reachability ladder per hole (frames from
	// reset). 0 means 20.
	MaxDepth int
	// FuzzLanes / FuzzCycles shape the fallback batch fuzzing (defaults:
	// simc.MaxLanes lanes, 48 cycles).
	FuzzLanes  int
	FuzzCycles int
	// Seed is the base seed for fallback fuzzing; the per-hole seed is
	// derived from it and the hole's index in the ranked list.
	Seed int64
	// Workers is the sched pool width (0 = GOMAXPROCS).
	Workers int
	// MC overrides the checker options (zero value = mc.DefaultOptions).
	MC mc.Options
	// Telemetry journals directed.hole / mc.reach / sat.solve spans.
	Telemetry *telemetry.Tracer
}

func (o DirectedOptions) withDefaults() DirectedOptions {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 20
	}
	if o.FuzzLanes <= 0 {
		o.FuzzLanes = simc.MaxLanes
	}
	if o.FuzzLanes > simc.MaxLanes {
		o.FuzzLanes = simc.MaxLanes
	}
	if o.FuzzCycles <= 0 {
		o.FuzzCycles = 48
	}
	if o.MC == (mc.Options{}) {
		o.MC = mc.DefaultOptions()
	}
	return o
}

// Attempt methods.
const (
	MethodSAT         = "sat"         // witness decoded from a satisfying assignment
	MethodFuzz        = "fuzz"        // focused batch fuzzing hit the hole
	MethodShared      = "shared"      // a sibling hole's witness covered this one
	MethodDead        = "dead"        // k-induction proved the hole unreachable at all depths
	MethodDeferred    = "deferred"    // unreachable at the adaptive cap; retried deeper next iteration
	MethodUnreachable = "unreachable" // UNSAT to the full bound and fuzzing missed
	MethodOpen        = "open"        // budget ran out and fuzzing missed
	MethodError       = "error"       // engine fault (Err carries the cause)
)

// HoleAttempt is the outcome of directing stimulus at one hole.
type HoleAttempt struct {
	Hole *holes.Hole
	// Method is one of the Method* constants.
	Method string
	// Depth is the witness length in cycles (SAT: ladder depth; fuzz: hit
	// cycle + 1; shared: hit cycle + 1 in the sibling's witness; dead /
	// deferred / unreachable: the depth proven unreachable). Zero when the
	// attempt produced neither.
	Depth int
	// Stim exercises the hole when replayed from reset, or nil. Shared
	// attempts carry no stimulus — the witness named by Via, already in the
	// suite, covers this hole.
	Stim sim.Stimulus
	// Via is the key of the sibling hole whose witness covered this one
	// (MethodShared only).
	Via string
	// K is the winning induction k of a MethodDead promotion; on a deferred
	// or unreachable attempt it is the highest induction step tried (all
	// observed Sat), feeding the cross-iteration induction resume.
	K int
	// ProvenDepth is the deepest depth this attempt proved the obligation
	// unreachable within; it feeds the cross-iteration ladder resume.
	ProvenDepth int
	// SATUnreachable records that the obligation was UNSAT to the bound
	// even when fuzzing later hit it (a diagnostic for bound tuning).
	SATUnreachable bool
	Err            error
}

// obligationFor encodes the hole as a reachability obligation. The Expr
// nodes are reused from the design/holes, so the session's per-frame gadget
// memoization applies across attempts.
func obligationFor(h *holes.Hole) mc.Obligation {
	ob := mc.Obligation{Name: h.Key()}
	switch h.Kind {
	case holes.BranchArm, holes.CondTrue:
		ob.Props = []mc.ReachProp{{Expr: h.Point.Expr, Value: true}}
	case holes.CondFalse:
		ob.Props = []mc.ReachProp{{Expr: h.Point.Expr, Value: false}}
	case holes.ToggleRise, holes.ToggleFall:
		bit := rtl.Expr(&rtl.Select{X: &rtl.Ref{Sig: h.Sig}, Bit: h.Bit})
		rise := h.Kind == holes.ToggleRise
		ob.Props = []mc.ReachProp{
			{Expr: bit, Value: !rise, Offset: 0},
			{Expr: bit, Value: rise, Offset: 1},
		}
	case holes.FSMState:
		ob.Props = []mc.ReachProp{{Expr: stateEq(h.Reg, h.To), Value: true}}
	default: // FSMArc
		ob.Props = []mc.ReachProp{
			{Expr: stateEq(h.Reg, h.From), Value: true, Offset: 0},
			{Expr: stateEq(h.Reg, h.To), Value: true, Offset: 1},
		}
	}
	return ob
}

func stateEq(reg *rtl.Signal, v uint64) rtl.Expr {
	return &rtl.Binary{Op: rtl.OpEq, A: &rtl.Ref{Sig: reg}, B: rtl.NewConst(v, reg.Width), W: 1}
}

// FocusedLanes generates fuzz lanes aimed at a hole: the hole's cone inputs
// toggle randomly while every other input is held at zero (it cannot affect
// the hole), with the usual reset prefix. Lane l uses seed+l.
func FocusedLanes(d *rtl.Design, focus []*rtl.Signal, lanes, cycles int, seed int64, resetCycles int) []sim.Stimulus {
	inCone := map[string]bool{}
	for _, s := range focus {
		inCone[s.Name] = true
	}
	ins := d.Inputs()
	out := make([]sim.Stimulus, lanes)
	for l := range out {
		rng := rand.New(rand.NewSource(seed + int64(l)))
		stim := make(sim.Stimulus, 0, cycles)
		for c := 0; c < cycles; c++ {
			iv := sim.InputVec{}
			for _, in := range ins {
				if inCone[in.Name] {
					iv[in.Name] = rng.Uint64() & rtl.Mask(in.Width)
				} else {
					iv[in.Name] = 0
				}
			}
			for _, rname := range []string{"rst", "reset"} {
				if _, ok := iv[rname]; !ok {
					continue
				}
				if c < resetCycles {
					iv[rname] = 1
				} else if inCone[rname] && rng.Intn(16) == 0 {
					iv[rname] = 1
				} else {
					iv[rname] = 0
				}
			}
			stim = append(stim, iv)
		}
		out[l] = stim
	}
	return out
}

// DirectedFromHoles synthesizes stimulus per hole: SAT-directed first,
// focused fuzzing as the fallback ladder. Holes are attempted in slice order
// (callers pass the ranked list from holes.FromCollector); the result is
// positional — out[i] answers hs[i] — and independent of the worker count.
//
// The default engine processes holes in fixed-size waves and replays every
// witness against the holes still waiting at each wave boundary: a hole
// covered by a sibling's witness comes back as MethodShared (Via names the
// sibling, Stim is nil — the sibling's stimulus is the one to keep) and never
// issues its own reach query.
func DirectedFromHoles(ctx context.Context, d *rtl.Design, hs []*holes.Hole, opts DirectedOptions) ([]*HoleAttempt, error) {
	opts = opts.withDefaults()
	if len(hs) == 0 {
		return make([]*HoleAttempt, 0), nil
	}
	cw, err := newClosureWorkers(d, len(hs), opts)
	if err != nil {
		return nil, err
	}
	caps := make([]int, len(hs))
	for i := range caps {
		caps[i] = opts.MaxDepth
	}
	return cw.runWaves(ctx, hs, caps, nil, nil, opts), nil
}

// ClosureOptions configures CloseCoverage.
type ClosureOptions struct {
	DirectedOptions
	// SeedLanes random stimuli of SeedCycles cycles each prime the suite
	// (defaults 4 × 64).
	SeedLanes  int
	SeedCycles int
	// TotalCycles caps the summed cycle count of the suite (0 = no cap).
	// Directed stimuli that would exceed the cap are dropped.
	TotalCycles int
	// MaxIterations bounds the collect→extract→direct loop (default 4).
	MaxIterations int
	// FillRandom tops the suite up with random stimulus to TotalCycles
	// after closure, for equal-budget comparisons against random-only.
	FillRandom bool
	// Compiled routes coverage collection through the compiled batch-free
	// engine (identical observations, faster).
	Compiled bool
	// ResetCycles is the reset prefix of generated random stimuli
	// (default 2).
	ResetCycles int
	// DeadFile persists proven-dead holes (JSONL, per-design fingerprint
	// namespaces) across runs: holes recorded dead are excluded from the
	// universe before any query is issued, and new promotions are appended.
	// Empty disables persistence; promotions still shrink this run.
	DeadFile string
}

func (o ClosureOptions) withDefaults() ClosureOptions {
	o.DirectedOptions = o.DirectedOptions.withDefaults()
	if o.SeedLanes <= 0 {
		o.SeedLanes = 4
	}
	if o.SeedCycles <= 0 {
		o.SeedCycles = 64
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 4
	}
	if o.ResetCycles <= 0 {
		o.ResetCycles = 2
	}
	return o
}

// IterationStats records one pass of the closure loop.
type IterationStats struct {
	Holes    int // holes attempted this iteration
	Directed int // stimuli appended
	Closed   int // holes that disappeared after re-collection
	Shared   int // holes covered by a sibling's witness (no query of their own)
	Dead     int // holes promoted to proven-dead (removed from the universe)
	Deferred int // holes pushed to a deeper cap next iteration
}

// ClosureResult is the outcome of CloseCoverage.
type ClosureResult struct {
	// Suite is the final stimulus suite: seed prefix, then directed
	// stimuli in rank order per iteration, then the optional random fill.
	Suite []sim.Stimulus
	// Initial/Final are the coverage reports before and after closure.
	Initial, Final coverage.Report
	Iterations     []IterationStats
	// Attempts aggregates every hole attempt across iterations.
	Attempts []*HoleAttempt
	// Methods counts attempts by method.
	Methods map[string]int
	// Converged reports that no attemptable holes remained (every
	// remaining hole is unreachable/open/errored).
	Converged bool
	// CyclesUsed is the summed cycle count of the final suite.
	CyclesUsed int
	// Dead lists the holes promoted to proven-dead this run (k-induction on
	// top of their bounded-unreachable base case); they are removed from the
	// hole universe and, with DeadFile set, never queried again in any run.
	Dead []DeadHole
	// DeadLoaded counts holes excluded up front because a previous run
	// already proved them dead (DeadFile).
	DeadLoaded int
	// ReachCalls / ReachSolves total the reachability queries issued and the
	// SAT solves they cost, summed over the per-worker sessions.
	ReachCalls  int
	ReachSolves int
	// Evicted / Readmitted count the final compaction pass's moves when the
	// cycle budget parked witnesses: suite witnesses evicted because every
	// fact they cover is covered elsewhere, and parked witnesses readmitted
	// into the freed cycles.
	Evicted    int
	Readmitted int
}

// CloseCoverage runs the coverage-closure loop: seed the suite randomly,
// collect, aim directed stimulus at the holes, append what hits, re-collect,
// and iterate until closure, no-progress, or the iteration/cycle budget.
//
// The default engine is adaptive and work-sharing (closer.go): per-hole depth
// caps grown across iterations with the ladder resumed past proven depths,
// witnesses replayed against every open hole at wave boundaries, and
// persistent bounded-unreachable holes promoted to proven-dead by k-induction
// and removed from the universe.
func CloseCoverage(ctx context.Context, d *rtl.Design, opts ClosureOptions) (*ClosureResult, error) {
	opts = opts.withDefaults()
	var runSp *telemetry.Span
	if opts.Telemetry != nil {
		ctx, runSp = opts.Telemetry.StartSpan(ctx, "directed.run",
			telemetry.String("design", d.Name))
		defer func() { runSp.End() }()
	}

	col := coverage.New(d)
	collect := func(stims []sim.Stimulus) error {
		if opts.Compiled {
			return col.RunSuiteCompiled(stims)
		}
		return col.RunSuite(stims)
	}

	res := &ClosureResult{Methods: map[string]int{}}
	seed := RandomLanes(d, opts.SeedLanes, opts.SeedCycles, opts.Seed, opts.ResetCycles)
	if opts.TotalCycles > 0 {
		// Cap the random seed at half the budget so directed stimulus always
		// has room to spend; truncate whole stimuli, then cycles.
		budget := opts.TotalCycles - opts.TotalCycles/2
		var kept []sim.Stimulus
		for _, s := range seed {
			if budget <= 0 {
				break
			}
			if len(s) > budget {
				s = s[:budget]
			}
			kept = append(kept, s)
			budget -= len(s)
		}
		seed = kept
	}
	res.Suite = append(res.Suite, seed...)
	for _, s := range seed {
		res.CyclesUsed += len(s)
	}
	if err := collect(seed); err != nil {
		return nil, err
	}
	res.Initial = col.Report()

	if err := closeAdaptive(ctx, d, col, collect, res, opts); err != nil {
		return nil, err
	}
	if !res.Converged && len(holes.FromCollector(col)) == 0 {
		res.Converged = true
	}

	if opts.FillRandom && opts.TotalCycles > res.CyclesUsed {
		fill := Random(d, opts.TotalCycles-res.CyclesUsed, opts.Seed+0x5eed, opts.ResetCycles)
		res.Suite = append(res.Suite, fill)
		res.CyclesUsed += len(fill)
		if err := collect([]sim.Stimulus{fill}); err != nil {
			return nil, err
		}
	}
	res.Final = col.Report()
	if runSp != nil {
		runSp.Annotate(
			telemetry.Int("cycles", int64(res.CyclesUsed)),
			telemetry.Int("attempts", int64(len(res.Attempts))),
			telemetry.Int("reach_solves", int64(res.ReachSolves)),
		)
	}
	return res, nil
}

// String summarizes an attempt for CLI output.
func (at *HoleAttempt) String() string {
	s := fmt.Sprintf("%-12s %s", at.Method, at.Hole.Key())
	if at.Stim != nil {
		s += fmt.Sprintf(" (%d cycles)", len(at.Stim))
	}
	return s
}
