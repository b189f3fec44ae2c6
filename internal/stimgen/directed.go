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

	"goldmine/internal/coverage"
	"goldmine/internal/holes"
	"goldmine/internal/mc"
	"goldmine/internal/rtl"
	"goldmine/internal/sim"
	"goldmine/internal/simc"
	"goldmine/internal/telemetry"
)

// DirectedOptions is the per-hole knob block of CloseCoverage, embedded in
// ClosureOptions.
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

// focusDraw is the one draw routine of focused fuzzing. Its stream per lane
// is fixed (laneSource draws what math/rand seeded with the lane's seed
// draws): per cycle, one Uint64 per cone input in rtl.Design.Inputs order
// (a cone rst/reset draws too, and the draw is then overwritten), then, past
// the reset prefix, one Intn(16) for rst and then for reset when that input
// is in the cone. Two sinks consume it: every lane written straight into
// packed rows (the fuzz run), and one lane as a sim.Stimulus (the witness).
type focusDraw struct {
	ins     []*rtl.Signal
	inCone  []bool
	isReset []bool
	resets  []int // input indices of rst, then reset, when present
}

func newFocusDraw(d *rtl.Design, focus []*rtl.Signal) *focusDraw {
	cone := make(map[string]bool, len(focus))
	for _, s := range focus {
		cone[s.Name] = true
	}
	fd := &focusDraw{ins: d.Inputs()}
	fd.inCone = make([]bool, len(fd.ins))
	fd.isReset = make([]bool, len(fd.ins))
	for i, in := range fd.ins {
		fd.inCone[i] = cone[in.Name]
	}
	for _, rname := range []string{"rst", "reset"} {
		for i, in := range fd.ins {
			if in.Name == rname {
				fd.resets = append(fd.resets, i)
				fd.isReset[i] = true
			}
		}
	}
	return fd
}

// draw reseeds r with seed and hands set every input value of the first
// cycles cycles, once each: set(c, i, v) for input i (rtl.Design.Inputs
// order) at cycle c, out-of-cone inputs included (as zero). A shorter draw
// is a prefix of a longer one.
func (fd *focusDraw) draw(r *laneSource, seed int64, cycles, resetCycles int, set func(c, i int, v uint64)) {
	r.Seed(seed)
	for c := 0; c < cycles; c++ {
		for i, in := range fd.ins {
			var v uint64
			if fd.inCone[i] {
				v = r.Uint64() & rtl.Mask(in.Width)
			}
			if !fd.isReset[i] {
				set(c, i, v)
			}
		}
		for _, i := range fd.resets {
			var v uint64
			if c < resetCycles || fd.inCone[i] && r.Intn(16) == 0 {
				v = 1
			}
			set(c, i, v)
		}
	}
}

// lane draws the lane seeded seed as a stimulus of cycles cycles: the values
// packed writes into the lane it seeds with seed, or their prefix.
func (fd *focusDraw) lane(r *laneSource, seed int64, cycles, resetCycles int) sim.Stimulus {
	stim := make(sim.Stimulus, cycles)
	for c := range stim {
		stim[c] = make(sim.InputVec, len(fd.ins))
	}
	fd.draw(r, seed, cycles, resetCycles, func(c, i int, v uint64) {
		stim[c][fd.ins[i].Name] = v
	})
	return stim
}

// packed draws lanes lanes (lane l seeded seed+l) of cycles cycles straight
// into packed rows of p, with no InputVec.
func (fd *focusDraw) packed(p *simc.BatchProgram, r *laneSource, lanes, cycles int, seed int64, resetCycles int) (*simc.PackedStim, error) {
	ps, err := p.NewPackedStim(lanes, cycles)
	if err != nil {
		return nil, err
	}
	for l := 0; l < lanes; l++ {
		fd.draw(r, seed+int64(l), cycles, resetCycles, func(c, i int, v uint64) {
			if v != 0 { // the rows start zeroed
				ps.SetInput(l, c, i, v)
			}
		})
	}
	return ps, nil
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
	// Compiled is ignored: coverage collection always runs on the 64-lane
	// batch engine, whose observations equal the interpreter's. It stays
	// only because the perfbench harness (perfbench/workloads.go, closePass)
	// still sets it; the next change to that harness drops both.
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
	if err := col.RunSuiteCompiled(seed); err != nil {
		return nil, err
	}
	res.Initial = col.Report()

	if err := closeAdaptive(ctx, d, col, res, opts); err != nil {
		return nil, err
	}
	if !res.Converged && len(holes.FromCollector(col)) == 0 {
		res.Converged = true
	}

	if opts.FillRandom && opts.TotalCycles > res.CyclesUsed {
		fill := Random(d, opts.TotalCycles-res.CyclesUsed, opts.Seed+0x5eed, opts.ResetCycles)
		res.Suite = append(res.Suite, fill)
		res.CyclesUsed += len(fill)
		if err := col.RunSuiteCompiled([]sim.Stimulus{fill}); err != nil {
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
