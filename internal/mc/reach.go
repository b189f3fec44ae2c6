// Reachability obligations: the directed-stimulus generator asks "is there an
// input sequence from reset that exercises this coverage hole within k
// cycles?" — the question an assertion check asks of its violation, with an
// arbitrary conjunction of 1-bit conditions at fixed frame offsets as the
// target. Obligations run on the Session's one BMC ladder and one induction
// ladder (session.go), so the frames unrolled and clauses learned while
// answering earlier queries are all reused, and the obligations themselves
// are pure assumption sets — nothing is retracted between holes.
//
// Verdicts and witnesses are deterministic for the same reason Session checks
// are: the first SAT depth of the ladder is a property of the encoded
// formula, and a found witness is canonicalized to the lexicographically
// smallest assignment of the obligation's input bits (canonicalStim), erasing
// solver history. An UNSAT sweep to the bound is a proof of bounded
// unreachability, also history-independent.
package mc

import (
	"context"
	"fmt"

	"goldmine/internal/cone"
	"goldmine/internal/rtl"
	"goldmine/internal/sat"
	"goldmine/internal/sim"
	"goldmine/internal/telemetry"
)

// ReachStatus classifies the outcome of a reachability query.
type ReachStatus int

// Reachability outcomes. ReachUnreachable is a bounded claim: no witness
// exists within the depth the query was allowed to explore. ReachDead is the
// unbounded promotion of that claim: k-induction proved no witness exists at
// any depth, so the target is dead code and can be removed from the hole
// universe entirely.
const (
	ReachFound ReachStatus = iota
	ReachUnreachable
	ReachUnknown
	ReachDead
)

func (s ReachStatus) String() string {
	switch s {
	case ReachFound:
		return "found"
	case ReachUnreachable:
		return "unreachable"
	case ReachDead:
		return "dead"
	default:
		return "unknown"
	}
}

// ReachProp is one conjunct of an obligation: a 1-bit expression required to
// take a given value at frame base+Offset of the witness window. Offsets let
// one obligation talk about adjacent frames (toggle edges, FSM arcs).
type ReachProp struct {
	Expr   rtl.Expr
	Value  bool
	Offset int
}

// Obligation is a conjunction of props to be satisfied somewhere within the
// unrolling: the window base slides along the ladder exactly like a BMC
// window, so "within k cycles" means the last prop lands on the final frame.
type Obligation struct {
	// Name labels telemetry spans (typically the hole key).
	Name  string
	Props []ReachProp
}

// ReachResult is the outcome of Session.Reach.
type ReachResult struct {
	Status ReachStatus
	// Stim is the canonical witness stimulus on ReachFound: Depth frames
	// over the obligation's cone inputs (missing inputs are zero).
	Stim  sim.Stimulus
	Depth int
	// K is the winning induction k on ReachDead.
	K int
	// Cause carries the budget-taxonomy error behind a ReachUnknown.
	Cause error
}

// exprAt keys the memoized literal of a 1-bit expression at a frame. Expr
// implementations are pointers, so identity works: hole extraction hands the
// same Expr nodes back for every attempt on a design.
type exprAt struct {
	e rtl.Expr
	t int
}

// exprLit encodes (or recalls) expression e's low bit at frame t.
func (st *satState) exprLit(e rtl.Expr, t int) (sat.Lit, error) {
	k := exprAt{e, t}
	if l, ok := st.ec[k]; ok {
		return l, nil
	}
	vec, err := st.u.EncodeExpr(e, t)
	if err != nil {
		return 0, err
	}
	if st.ec == nil {
		st.ec = map[exprAt]sat.Lit{}
	}
	st.ec[k] = vec[0]
	return vec[0], nil
}

// validateObligation rejects malformed obligations and returns the largest
// frame offset among the props.
func validateObligation(ob Obligation) (maxOff int, err error) {
	if len(ob.Props) == 0 {
		return 0, fmt.Errorf("mc: empty reach obligation")
	}
	for _, p := range ob.Props {
		if p.Expr == nil || p.Expr.Width() != 1 {
			return 0, fmt.Errorf("mc: reach obligation %s: props must be 1-bit expressions", ob.Name)
		}
		if p.Offset < 0 {
			return 0, fmt.Errorf("mc: reach obligation %s: negative offset", ob.Name)
		}
		if p.Offset > maxOff {
			maxOff = p.Offset
		}
	}
	return maxOff, nil
}

// Reach decides whether the obligation is satisfiable within maxDepth frames
// from reset, on the Session's persistent BMC state. ins is the input-signal
// set the witness is canonicalized (and reported) over — pass the obligation's
// cone inputs; nil derives them from the props' support cones. Budget
// exhaustion degrades to ReachUnknown with the cause recorded, mirroring the
// check path's ladder; an engine fault is retried once on rebuilt state.
func (s *Session) Reach(ctx context.Context, ob Obligation, maxDepth int, ins []*rtl.Signal) (*ReachResult, error) {
	return s.ReachFrom(ctx, ob, 0, maxDepth, ins)
}

// ReachFrom is Reach with the ladder resumed past an already-proven bound:
// the caller asserts the obligation has previously been proven unreachable
// within fromDepth frames (a ReachUnreachable verdict at that depth from this
// or any other Session on the same design), so the ladder starts directly at
// fromDepth+1 and every solve below the proven bound is skipped. fromDepth 0
// is a full ladder. If maxDepth <= fromDepth the bounded claim already covers
// the request and the query costs zero solves.
//
// This is the cross-iteration resume of the closure engine: a hole retried
// with a deeper adaptive cap pays only for the new rungs, so the total solve
// count of a hole across all retries is bounded by one full ladder.
func (s *Session) ReachFrom(ctx context.Context, ob Obligation, fromDepth, maxDepth int, ins []*rtl.Signal) (*ReachResult, error) {
	maxOff, err := validateObligation(ob)
	if err != nil {
		return nil, err
	}
	fromDepth = max(fromDepth, 0)
	minFrames := maxOff + 1
	maxDepth = max(maxDepth, minFrames)
	s.ReachCalls++
	if fromDepth >= maxDepth {
		// Everything the caller asks for is already proven unreachable.
		return &ReachResult{Status: ReachUnreachable, Depth: fromDepth}, nil
	}
	b := s.c.newBudget(ctx)
	if s.c.tel != nil {
		var sp *telemetry.Span
		_, sp = s.c.tel.StartSpan(ctx, "mc.reach",
			telemetry.String("target", ob.Name),
			telemetry.Int("from", int64(fromDepth)))
		b.sp = sp
		defer func() { sp.End() }()
	}
	var res *ReachResult
	err = s.dispatch(func() (err error) {
		res, err = s.bmcLadder(b, ob, minFrames, fromDepth, maxDepth, ins, "mc.reach_frame", &s.ReachSolves)
		return err
	})
	return res, err
}

// obligationAssumps encodes (or recalls) the obligation's props as assumption
// literals for the window based at frame t0.
func (st *satState) obligationAssumps(ob Obligation, t0 int) ([]sat.Lit, error) {
	assumps := make([]sat.Lit, 0, len(ob.Props))
	for _, p := range ob.Props {
		l, err := st.exprLit(p.Expr, t0+p.Offset)
		if err != nil {
			return nil, err
		}
		if !p.Value {
			l = l.Neg()
		}
		assumps = append(assumps, l)
	}
	return assumps, nil
}

// ProveUnreachable attempts to promote a bounded-unreachable obligation to an
// unbounded one on the Session's induction ladder (inductionLadder). The
// base case is the caller's proof that the obligation is unreachable within
// baseDepth frames from reset, which must come from a prior ReachUnreachable
// verdict at that depth. A ReachDead verdict is then a proof of
// unreachability at all depths: the target is dead code.
//
// maxK bounds the induction ladder (0 means the checker's MaxInduction); it
// is additionally capped at baseDepth-maxOffset so the base case always
// covers the winning k. fromK resumes the ladder past steps a prior call
// already tried: the step formula at a given k does not depend on baseDepth,
// so a step found satisfiable once is satisfiable forever and the caller may
// skip it — the contract is that steps 1..fromK were already observed Sat.
// Returns ReachUnreachable (the bounded claim stands) when induction does not
// converge — with K reporting the highest step tried, for the next call's
// fromK — and ReachUnknown with the cause on budget exhaustion.
func (s *Session) ProveUnreachable(ctx context.Context, ob Obligation, baseDepth, fromK, maxK int) (*ReachResult, error) {
	maxOff, err := validateObligation(ob)
	if err != nil {
		return nil, err
	}
	if baseDepth <= maxOff {
		return nil, fmt.Errorf("mc: reach obligation %s: base depth %d does not cover the %d-frame window", ob.Name, baseDepth, maxOff+1)
	}
	if maxK <= 0 {
		maxK = s.c.opts.MaxInduction
	}
	fromK = max(fromK, 0)
	if fromK >= min(maxK, baseDepth-maxOff) {
		// Every step the base case can cover was already observed Sat.
		return &ReachResult{Status: ReachUnreachable, Depth: baseDepth, K: fromK}, nil
	}
	s.ReachCalls++
	b := s.c.newBudget(ctx)
	if s.c.tel != nil {
		var sp *telemetry.Span
		_, sp = s.c.tel.StartSpan(ctx, "mc.reach_induction",
			telemetry.String("target", ob.Name),
			telemetry.Int("base", int64(baseDepth)))
		b.sp = sp
		defer func() { sp.End() }()
	}
	var res *ReachResult
	err = s.dispatch(func() (err error) {
		res, err = s.inductionLadder(b, ob, maxOff, baseDepth, fromK, maxK, &s.ReachSolves)
		return err
	})
	return res, err
}

// reachInputs derives the canonicalization input set from the obligation's
// support cones (sorted by name, like every canonical input order).
func (c *Checker) reachInputs(ob Obligation) []*rtl.Signal {
	support := map[*rtl.Signal]bool{}
	for _, p := range ob.Props {
		rtl.Support(p.Expr, support)
	}
	seen := map[*rtl.Signal]bool{}
	for sig := range support {
		for s := range cone.Of(c.d, sig) {
			seen[s] = true
		}
	}
	return cone.Inputs(c.d, seen)
}
