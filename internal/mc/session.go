// Incremental model checking: a Session keeps persistent SAT solvers and CNF
// unrollings alive across checks against one design, so the transition
// relation is encoded (and its learned clauses earned) once instead of per
// assertion or per coverage hole.
//
// Every SAT question a Session answers is a reach obligation (reach.go): is
// there an input sequence from reset that satisfies a conjunction of 1-bit
// props at fixed frame offsets? A coverage hole is one directly; an assertion
// check asks for the obligation of its violation — every antecedent prop
// true, the consequent false. One BMC ladder (bmcLadder) and one k-induction
// ladder (inductionLadder) decide them all, on two solver states:
//
//   - bmc: the reset-constrained unrolling shared by every bounded query.
//     Obligations are pure assumption sets, so nothing has to be retracted
//     between queries — dropping the assumptions is the retraction.
//   - ind: the free-initial-state unrolling for k-induction. The "obligation
//     misses windows 0..k-1" hypotheses are real clauses, so each query gets
//     a fresh activation literal act: every hypothesis clause carries ¬act,
//     the step query assumes act, and retiring the query is the unit clause
//     ¬act (the hypotheses become inert tautologies).
//
// Both states only ever grow: frames are appended monotonically, and extra
// frames cannot change the satisfiability of a window query because the
// transition functions are total (every added frame is definitional). Learned
// clauses are implied by the clause database alone, so they remain sound
// across queries — that retention is where the speedup comes from.
//
// # Determinism
//
// Counterexamples from a persistent solver would depend on solver history
// (which queries were asked before this one), breaking both the
// fresh-vs-pooled equivalence and -j1 ≡ -jN artifact determinism. Every
// witness is therefore canonicalized (canonicalStim): the model is minimized
// to the lexicographically smallest assignment of the obligation's
// cone-of-influence input bits, which is a property of the formula, not of
// the search that found a first model. Verdict statuses are
// history-independent already: the first SAT depth of the BMC ladder and the
// first UNSAT k of induction are truths about the encoded formulas.
//
// A Session is single-goroutine, like the solvers it owns; the core engine
// keeps a pool of Sessions and checks out one per in-flight check.
// Checker.CheckCtx runs each check on a throwaway Session, so a fresh check
// and a pooled one share this one SAT ladder and differ only in solver
// history.
package mc

import (
	"context"
	"errors"
	"fmt"

	"goldmine/internal/assertion"
	"goldmine/internal/cnf"
	"goldmine/internal/rtl"
	"goldmine/internal/sat"
	"goldmine/internal/sim"
	"goldmine/internal/telemetry"
)

// satState is one persistent solver + unrolling pair.
type satState struct {
	s *sat.Solver
	u *cnf.Unroller
	// ec memoizes prop gadgets per frame, keyed by expression node identity
	// (exprLit), so a prop re-asked at a frame reuses its literal instead of
	// growing the persistent formula.
	ec map[exprAt]sat.Lit
}

// Session is an incremental checking context over one Checker. It reuses the
// Checker's options, statistics, and explicit-state caches; only the
// SAT-based engines gain persistent state. Not safe for concurrent use —
// one Session per goroutine (see the package comment of sat).
type Session struct {
	c   *Checker
	bmc *satState // reset-constrained; obligations are assumption-only
	ind *satState // free initial state; hypotheses under activation literals

	// props interns one expression per proposition shape (signal, bit,
	// value), so structurally equal propositions across checks share one
	// gadget per frame in the node-keyed literal memos.
	props map[assertion.Prop]rtl.Expr

	// Activations counts queries encoded into the induction state (each
	// consumed one activation literal); Reuses counts queries answered by the
	// persistent bmc state. Advisory, single-goroutine like the Session.
	Activations int
	Reuses      int

	// ReachCalls counts Reach/ReachFrom/ProveUnreachable queries answered by
	// this Session; ReachSolves counts the SAT solves they issued. The split
	// is the closure engine's work metric: a resumed or already-covered
	// query increments ReachCalls but not ReachSolves. Advisory,
	// single-goroutine like the Session; deterministic because solve counts
	// depend only on the obligation, the depth window, and the design.
	ReachCalls  int
	ReachSolves int
}

// NewSession creates an incremental checking context. The underlying solver
// states are built lazily on first use. If a query faults mid-encode, the
// states are dropped and the query is decided once more on rebuilt ones.
func (c *Checker) NewSession() *Session { return &Session{c: c} }

// Checker returns the Session's underlying (shared) checker.
func (s *Session) Checker() *Checker { return s.c }

// Check decides the assertion using the persistent solver states.
func (s *Session) Check(a *assertion.Assertion) (*Result, error) {
	return s.CheckCtx(context.Background(), a)
}

// CheckCtx is Checker.CheckCtx routed through the Session's persistent SAT
// states. Verdicts, counterexamples, and the degradation ladder are identical
// to a fresh session's (enforced by the equivalence tests); only the work to
// produce them shrinks.
func (s *Session) CheckCtx(ctx context.Context, a *assertion.Assertion) (*Result, error) {
	return s.c.checkWith(ctx, a, s)
}

// dispatch runs one query behind the panic barrier (guard). An engine fault
// (ErrEngineInternal) means the persistent states may hold half-encoded
// clauses: they are dropped and the query is decided once more on freshly
// built ones, so one fault costs one rebuild, not a wrong verdict. A second
// fault is returned; core's recover barrier reports it as an engine error.
func (s *Session) dispatch(fn func() error) error {
	err := s.guard(fn)
	if errors.Is(err, ErrEngineInternal) {
		s.reset()
		err = s.guard(fn)
	}
	return err
}

// guard runs fn with the session's panic barrier: a panic inside the engines
// discards all persistent states (they may hold half-encoded clauses) and
// surfaces as ErrEngineInternal so dispatch can rebuild them and retry.
func (s *Session) guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.reset()
			err = fmt.Errorf("%w: session engine panic: %v", ErrEngineInternal, r)
		}
	}()
	return fn()
}

// route sends the check to an engine, degrading explicit-state to SAT when
// the explicit slice of the budget runs out.
func (s *Session) route(b *budget, a *assertion.Assertion) (*Result, error) {
	c := s.c
	// The explicit engine pins input bits already fixed by the antecedent,
	// so only the remaining free bits need enumeration. Its work is
	// (reachable states) x 2^freeBits window simulations; gate on the
	// worst-case state count so a check can never blow up.
	freeBits := c.d.InputBits()*(a.Consequent.Offset+1) - c.pinnedInputBits(a)
	explicitWork := c.d.StateBits() + freeBits
	if len(c.d.Registers()) == 0 || !c.ExplicitOK || explicitWork > c.opts.MaxExplicitBits {
		return s.checkSAT(b, a)
	}
	// The explicit engine gets half the remaining budget; if that slice is
	// exhausted the SAT engine inherits what is left.
	esp := b.span("mc.explicit", telemetry.Int("free_bits", int64(freeBits)))
	res, err := c.checkExplicit(b.slice(0.5), a)
	esp.End(telemetry.Bool("fell_back", err != nil && IsBudget(err)))
	if err != nil && IsBudget(err) {
		res, err = s.checkSAT(b, a)
		// A decisive SAT verdict is as good as the explicit one would have
		// been; only a weaker outcome counts as degraded.
		if res != nil && (res.Status == StatusBounded || res.Status == StatusUnknown) {
			res.Degraded = true
			if res.Cause == nil {
				res.Cause = fmt.Errorf("%w: explicit engine budget slice exhausted", ErrBudgetExceeded)
			}
		}
	}
	return res, err
}

// reset drops every persistent solver state; each is rebuilt lazily on its
// next use.
func (s *Session) reset() {
	s.bmc, s.ind = nil, nil
}

// bmcState and indState unroll lazily (cnf.NewUnroller): each query
// encodes only the transitive sequential cone of the signals it references
// (cone-of-influence reduction), never the whole transition relation.
func (s *Session) bmcState() *satState {
	if s.bmc == nil {
		sol := s.c.newSolver()
		u := cnf.NewUnroller(sol, s.c.d)
		u.InitZero()
		s.bmc = &satState{s: sol, u: u}
	} else {
		s.Reuses++
	}
	return s.bmc
}

func (s *Session) indState() *satState {
	if s.ind == nil {
		sol := s.c.newSolver()
		s.ind = &satState{s: sol, u: cnf.NewUnroller(sol, s.c.d)}
	}
	return s.ind
}

// violation is the reach obligation of a's violation: every antecedent
// proposition holds and the consequent does not, each at its offset. The
// prop expressions are interned per Session (props).
func (s *Session) violation(a *assertion.Assertion) (Obligation, error) {
	ob := Obligation{Props: make([]ReachProp, 0, len(a.Antecedent)+1)}
	add := func(p assertion.Prop, holds bool) error {
		k := assertion.Prop{Signal: p.Signal, Bit: p.Bit, Value: p.Value}
		e, ok := s.props[k]
		if !ok {
			var err error
			if e, err = propExpr(s.c.d, p); err != nil {
				return err
			}
			if s.props == nil {
				s.props = map[assertion.Prop]rtl.Expr{}
			}
			s.props[k] = e
		}
		ob.Props = append(ob.Props, ReachProp{Expr: e, Value: holds, Offset: p.Offset})
		return nil
	}
	for _, p := range a.Antecedent {
		if err := add(p, true); err != nil {
			return ob, err
		}
	}
	return ob, add(a.Consequent, false)
}

// checkSAT decides a on the SAT ladders as the obligation of its violation.
// BMC runs from reset on 60% of the remaining wall budget and k-induction
// inherits the rest. On a register-free design every window is the same
// formula, so one BMC rung at the window size, on the whole budget, decides
// the check at every depth (method sat-comb). The verdict degrades
// gracefully: a budget hit during BMC reports the deepest fully explored
// bound (or no claim if not even the first window completed); a budget hit
// during induction falls back to the completed BMC bound. A falsification
// found before the budget dies is always reported — budget pressure can
// weaken a claim but never invert one.
func (s *Session) checkSAT(b *budget, a *assertion.Assertion) (*Result, error) {
	ob, err := s.violation(a)
	if err != nil {
		return nil, err
	}
	maxOff, err := validateObligation(ob)
	if err != nil {
		return nil, err
	}
	minFrames := maxOff + 1
	comb := len(s.c.d.Registers()) == 0
	maxDepth, bmcBudget, method := max(s.c.opts.MaxBMCDepth, minFrames), b.slice(0.6), "bmc"
	if comb {
		maxDepth, bmcBudget, method = minFrames, b, "sat-comb"
	}
	r, err := s.bmcLadder(bmcBudget, ob, minFrames, 0, maxDepth, nil, "mc.bmc_frame", nil)
	switch {
	case err != nil:
		return nil, err
	case r.Status == ReachFound:
		return &Result{Status: StatusFalsified, Ctx: r.Stim, Method: method, Depth: r.Depth}, nil
	case r.Status == ReachUnknown && r.Depth < minFrames:
		// Not even the shortest window was decided: nothing to claim.
		return nil, r.Cause
	case r.Status == ReachUnknown:
		return &Result{Status: StatusBounded, Method: "bmc-bounded", Depth: r.Depth, Degraded: true, Cause: r.Cause}, nil
	case comb:
		return &Result{Status: StatusProved, Method: method, Depth: minFrames}, nil
	}

	r, err = s.inductionLadder(b, ob, maxOff, maxDepth, 0, s.c.opts.MaxInduction, nil)
	switch {
	case err != nil:
		return nil, err
	case r.Status == ReachDead:
		return &Result{Status: StatusProved, Method: fmt.Sprintf("k-induction(k=%d)", r.K), Depth: r.K}, nil
	case r.Status == ReachUnknown:
		return &Result{Status: StatusBounded, Method: "bmc-bounded", Depth: maxDepth, Degraded: true, Cause: r.Cause}, nil
	}
	return &Result{Status: StatusBounded, Method: "bmc-bounded", Depth: maxDepth}, nil
}

// bmcLadder is the one BMC ladder. From reset it looks for a witness of ob
// whose window ends on frame depth-1, for depth = max(from+1, minFrames)..to,
// where minFrames spans ob's window; depths 1..from are trusted as already
// proven unreachable. Each rung opens a telemetry span named span; solves,
// when non-nil, counts the rung solves. A witness is canonicalized over ins
// (nil derives ob's cone inputs). The result is ReachFound with the witness,
// ReachUnknown with the cause and the deepest depth fully explored, or
// ReachUnreachable at depth to.
func (s *Session) bmcLadder(b *budget, ob Obligation, minFrames, from, to int, ins []*rtl.Signal, span string, solves *int) (*ReachResult, error) {
	st := s.bmcState()
	for depth := max(from+1, minFrames); depth <= to; depth++ {
		fsp := b.span(span, telemetry.Int("depth", int64(depth)))
		for st.u.Frames() < depth {
			st.u.AddFrame()
		}
		assumps, err := st.obligationAssumps(ob, depth-minFrames)
		if err != nil {
			fsp.End(telemetry.String("result", "error"))
			return nil, err
		}
		if solves != nil {
			*solves++
		}
		fb := *b
		fb.sp = fsp // this rung's sat.solve span hangs under the rung span
		verdict, scope, cause := fb.solveQuery(st.u, assumps)
		fsp.End(telemetry.String("result", verdict.String()))
		switch {
		case verdict == sat.Sat:
			if ins == nil {
				ins = s.c.reachInputs(ob)
			}
			// One span for the whole minimization; the probe storm runs on a
			// quieted budget so its micro-solves do not each journal a
			// sat.solve line (they still hit the sat.* counters).
			csp := b.span("mc.ctx_canon", telemetry.Int("depth", int64(depth)))
			stim := s.c.canonicalStim(b.quiet(), st.u, assumps, scope, ins, depth)
			csp.End()
			return &ReachResult{Status: ReachFound, Stim: stim, Depth: depth}, nil
		case cause != nil:
			return &ReachResult{Status: ReachUnknown, Depth: depth - 1, Cause: cause}, nil
		}
	}
	return &ReachResult{Status: ReachUnreachable, Depth: to}, nil
}

// inductionLadder is the one k-induction ladder, on the free-initial-state unrolling.
// The step at k asks whether a state sequence with ob absent from k
// consecutive windows can produce it in the next; UNSAT means ob can never
// appear for the first time after k quiet windows. Together with the base
// case — the caller's proof that ob is unreachable within base frames from
// reset — this closes the induction for every k <= base-maxOff (Sheeran,
// Singh & Stålmarck, FMCAD 2000), so the ladder is capped there: a deeper
// step would assume quiet windows the base case never checked. Steps
// 1..fromK are skipped (the caller observed them Sat). The hypothesis
// clauses carry a fresh activation literal, retired on every exit. Each
// step decides only on the Tseitin cone of act, every hypothesis literal
// and the step's assumptions, computed only if the step decides: every
// other clause of the induction state
// defines a gate or is a retired hypothesis, satisfied at level 0 by its
// ¬act unit, so the scope rule of sat.Solver.SolveScoped holds. The
// result is ReachDead with the winning K, ReachUnknown with the cause, or
// ReachUnreachable with K the highest step tried.
func (s *Session) inductionLadder(b *budget, ob Obligation, maxOff, base, fromK, maxK int, solves *int) (*ReachResult, error) {
	maxK = min(maxK, base-maxOff)
	is := s.indState()
	act := sat.Lit(is.s.NewVar())
	s.Activations++
	defer func() {
		// Retire this query's hypothesis clauses, then physically drop them
		// (and any learnt clause subsumed by ¬act) from the clause DB and
		// watch lists: retired clauses are permanently satisfied, but until
		// simplified they tax every later propagation on the shared solver.
		is.s.AddClause(act.Neg())
		is.s.Simplify()
	}()
	hyp := 0                   // hypothesis windows encoded so far for this act
	coneLits := []sat.Lit{act} // act and every hypothesis literal: the step scope's roots
	for k := fromK + 1; k <= maxK; k++ {
		for is.u.Frames() < k+maxOff+1 {
			is.u.AddFrame()
		}
		for ; hyp < k; hyp++ {
			// "ob does not hold at window hyp": the clause of negated prop
			// literals, guarded by the activation literal.
			lits, err := is.obligationAssumps(ob, hyp)
			if err != nil {
				return nil, err
			}
			clause := make([]sat.Lit, 0, len(lits)+1)
			for _, l := range lits {
				clause = append(clause, l.Neg())
			}
			is.s.AddClause(append(clause, act.Neg())...)
			coneLits = append(coneLits, lits...)
		}
		assumps, err := is.obligationAssumps(ob, k)
		if err != nil {
			return nil, err
		}
		if solves != nil {
			*solves++
		}
		ksp := b.span("mc.induction_step", telemetry.Int("k", int64(k)))
		kb := *b
		kb.sp = ksp
		scope := func() []int {
			return is.u.ConeVars(append(coneLits[:len(coneLits):len(coneLits)], assumps...))
		}
		verdict, cause := kb.solve(is.s, scope, append([]sat.Lit{act}, assumps...)...)
		ksp.End(telemetry.Bool("proved", verdict == sat.Unsat))
		if cause != nil {
			return &ReachResult{Status: ReachUnknown, Depth: base, Cause: cause}, nil
		}
		if verdict == sat.Unsat {
			return &ReachResult{Status: ReachDead, Depth: base, K: k}, nil
		}
	}
	return &ReachResult{Status: ReachUnreachable, Depth: base, K: maxK}, nil
}

// ---------------------------------------------------------------------------
// Canonical witnesses
// ---------------------------------------------------------------------------

// canonicalStim turns the current satisfying model into the canonical
// witness of the BMC ladder: lexMinInputs over the input bits of ins under
// base, the assumption set that pins the obligation, with every probe run
// on the check's budget. The result is a property of the formula, so the
// fresh and incremental paths — and every solver history — produce
// byte-identical stimuli, whether the obligation is an assertion's violation
// or a coverage hole. If the budget dies mid-minimization the remaining
// bits keep the values of the last full model, which still satisfies base
// plus everything fixed so far — the stimulus stays a genuine witness,
// merely non-canonical (the same wall-clock caveat as every other budget
// degradation).
//
// Must be called immediately after a Sat verdict on u.S, while the model is
// readable. scope is the decision scope of that solve (budget.solveQuery). A
// probe adds only input-bit literals to base: those in the cone are in the
// scope already, and those outside it are free leaves, which the solver
// assigns as assumptions. A bit outside the cone reads 0 in a scoped model,
// its canonical value.
//
// The probe count feeds mc.ctx_canon_probes.
func (c *Checker) canonicalStim(b *budget, u *cnf.Unroller, base []sat.Lit, scope []int, ins []*rtl.Signal, depth int) sim.Stimulus {
	probeScope := func() []int { return scope }
	probes := int64(0)
	defer func() { c.mtr.ctxProbes.Add(probes) }()
	return lexMinInputs(u, base, ins, depth, func(probe []sat.Lit) sat.Status {
		probes++
		verdict, cause := b.solve(u.S, probeScope, probe...)
		if cause != nil {
			return sat.Unknown
		}
		return verdict
	})
}

// lexMinInputs turns the current satisfying model of u.S into the
// lexicographically smallest assignment of the input bits of ins
// (frame-major over frames [0, depth), inputs in the order given, bits LSB
// first) that still satisfies base, and returns it as a stimulus. An input
// bit the unrolling never materialized is unconstrained and reads 0.
//
// Minimization is model-guided: bits already 0 in the current model are
// fixed for free, and each 1-bit costs at most one (cheap, heavily-assumed)
// probe solve. Every probe is the assumption list of the previous one plus
// one literal, so the solver keeps the previous probe's trail and propagates
// only the new bit. A probe that returns Unknown stops the minimization;
// the remaining bits keep the values of the last full model.
//
// Must be called immediately after a Sat verdict on u.S, while the model is
// readable.
func lexMinInputs(u *cnf.Unroller, base []sat.Lit, ins []*rtl.Signal, depth int, solve func(probe []sat.Lit) sat.Status) sim.Stimulus {
	s := u.S
	type ctxBit struct {
		lit   sat.Lit
		frame int
		sig   *rtl.Signal
		bit   int
		enc   bool // materialized in the unrolling (otherwise free, canonical 0)
	}
	var bits []ctxBit
	for t := 0; t < depth; t++ {
		for _, in := range ins {
			vec, ok := u.InputVecAt(t, in)
			for bi := 0; bi < in.Width; bi++ {
				cb := ctxBit{frame: t, sig: in, bit: bi, enc: ok}
				if ok {
					cb.lit = vec[bi]
				}
				bits = append(bits, cb)
			}
		}
	}

	// Snapshot the current model before any probe solve destroys it.
	vals := make([]bool, len(bits))
	for i, cb := range bits {
		if cb.enc {
			vals[i] = s.ValueLit(cb.lit)
		}
	}

	fixed := make([]sat.Lit, 0, len(base)+len(bits))
	fixed = append(fixed, base...)
	for i, cb := range bits {
		if !cb.enc {
			continue // unconstrained: already at its canonical 0
		}
		if !vals[i] {
			// The current model witnesses satisfiability with this bit 0.
			fixed = append(fixed, cb.lit.Neg())
			continue
		}
		verdict := solve(append(fixed[:len(fixed):len(fixed)], cb.lit.Neg()))
		if verdict == sat.Unknown {
			// Budget died: keep the last model's values for the rest.
			break
		}
		if verdict == sat.Sat {
			fixed = append(fixed, cb.lit.Neg())
			vals[i] = false
			for j := i + 1; j < len(bits); j++ {
				if bits[j].enc {
					vals[j] = s.ValueLit(bits[j].lit)
				}
			}
		} else {
			fixed = append(fixed, cb.lit) // 0 impossible: the bit is 1
		}
	}

	ctx := make(sim.Stimulus, depth)
	for t := range ctx {
		iv := sim.InputVec{}
		for _, in := range ins {
			iv[in.Name] = 0
		}
		ctx[t] = iv
	}
	for i, cb := range bits {
		if vals[i] {
			ctx[cb.frame][cb.sig.Name] |= 1 << uint(cb.bit)
		}
	}
	return ctx
}
