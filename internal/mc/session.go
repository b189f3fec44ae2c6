// Incremental model checking: a Session keeps persistent SAT solvers and CNF
// unrollings alive across checks against one design, so the transition
// relation is encoded (and its learned clauses earned) once instead of per
// assertion. Two solver states are maintained:
//
//   - bmc: the reset-constrained unrolling shared by every bounded check.
//     Properties are pure assumption sets (ant ∧ ¬cons window literals), so
//     nothing has to be retracted between checks — dropping the assumptions
//     is the retraction.
//   - ind: the free-initial-state unrolling for k-induction. The "property
//     holds at windows 0..k-1" hypotheses are real clauses, so each checked
//     assertion gets a fresh activation literal act: every hypothesis clause
//     carries ¬act, the step query assumes act, and retiring the assertion is
//     the unit clause ¬act (the hypotheses become inert tautologies).
//
// Both states only ever grow: frames are appended monotonically, and extra
// frames cannot change the satisfiability of a window query because the
// transition functions are total (every added frame is definitional). Learned
// clauses are implied by the clause database alone, so they remain sound
// across properties — that retention is where the speedup comes from.
//
// # Determinism
//
// Counterexamples from a persistent solver would depend on solver history
// (which assertions were checked before this one), breaking both the
// fresh-vs-pooled equivalence and -j1 ≡ -jN artifact determinism. Every
// check therefore canonicalizes its counterexample (canonicalCtx): the model
// is minimized to the lexicographically smallest assignment of the
// assertion's cone-of-influence input bits, which is a property of the
// formula, not of the search that found a first model. Verdict statuses are
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
	"goldmine/internal/cone"
	"goldmine/internal/rtl"
	"goldmine/internal/sat"
	"goldmine/internal/sim"
	"goldmine/internal/telemetry"
)

// satState is one persistent solver + unrolling pair.
type satState struct {
	s *sat.Solver
	u *cnf.Unroller
	// pc memoizes proposition gadgets per frame so re-checking structurally
	// equal propositions (ubiquitous across a mined suite) reuses literals
	// instead of growing the persistent formula.
	pc propCache
	// ec memoizes reach-obligation expression gadgets per frame (keyed by
	// node identity — hole extraction reuses Expr nodes across attempts).
	ec map[exprAt]sat.Lit
}

// Session is an incremental checking context over one Checker. It reuses the
// Checker's options, statistics, and explicit-state caches; only the
// SAT-based engines gain persistent state. Not safe for concurrent use —
// one Session per goroutine (see the package comment of sat).
type Session struct {
	c   *Checker
	bmc *satState // reset-constrained; properties are assumption-only
	ind *satState // free initial state; properties under activation literals

	// solo keeps every check off the racing portfolio (Checker.CheckCtx's
	// throwaway sessions).
	solo bool

	// Racing portfolio lane sets (portfolio.go), built lazily when
	// Options.Portfolio >= 2 routes a predicted-hard check to the race. Kept
	// separate from the solo states above: lane formulas must stay purely
	// definitional for clause sharing to be sound, which the solo induction
	// state's activation-guarded hypothesis clauses would break.
	raceBMC *raceSet
	raceInd *raceSet

	// Activations counts properties encoded into the induction state (each
	// consumed one activation literal); Reuses counts checks answered by the
	// persistent states; Races counts checks decided by the portfolio.
	// Advisory, single-goroutine like the Session.
	Activations int
	Reuses      int
	Races       int

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
// states are built lazily on first use. If a check faults mid-encode, the
// states are dropped and the check is decided once more on rebuilt ones.
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

// dispatch decides the check on the Session's states. An engine fault
// (ErrEngineInternal) means the persistent states may hold half-encoded
// clauses or an unalignable lane set: they are dropped and the check is
// decided once more on freshly built ones, so one fault costs one rebuild,
// not a wrong verdict. A second fault is returned; core's recover barrier
// reports it as an engine error.
func (s *Session) dispatch(b *budget, a *assertion.Assertion) (*Result, error) {
	res, err := s.route(b, a)
	if errors.Is(err, ErrEngineInternal) {
		s.reset()
		res, err = s.route(b, a)
	}
	return res, err
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
	switch {
	case len(c.d.Registers()) == 0:
		return s.checkCombinational(b, a)
	case c.ExplicitOK && explicitWork <= c.opts.MaxExplicitBits:
		// The explicit engine gets half the remaining budget; if that slice
		// is exhausted the SAT engine inherits what is left.
		esp := b.span("mc.explicit", telemetry.Int("free_bits", int64(freeBits)))
		res, err := c.checkExplicit(b.slice(0.5), a)
		esp.End(telemetry.Bool("fell_back", err != nil && IsBudget(err)))
		if err != nil && IsBudget(err) {
			res, err = s.checkSAT(b, a)
			// A decisive SAT verdict is as good as the explicit one would
			// have been; only a weaker outcome counts as degraded.
			if res != nil && (res.Status == StatusBounded || res.Status == StatusUnknown) {
				res.Degraded = true
				if res.Cause == nil {
					res.Cause = fmt.Errorf("%w: explicit engine budget slice exhausted", ErrBudgetExceeded)
				}
			}
		}
		return res, err
	default:
		return s.checkSAT(b, a)
	}
}

// reset drops every persistent solver state; each is rebuilt lazily on its
// next use.
func (s *Session) reset() {
	s.bmc, s.ind = nil, nil
	s.raceBMC, s.raceInd = nil, nil
}

// guard runs fn with the session's panic barrier: a panic inside the
// persistent-state engines discards all persistent states (they may hold
// half-encoded clauses — and for the race sets, a half-replayed catch-up
// breaks variable alignment) and surfaces as ErrEngineInternal so dispatch
// can rebuild them and retry.
func (s *Session) guard(fn func() (*Result, error)) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.reset()
			res, err = nil, fmt.Errorf("%w: session engine panic: %v", ErrEngineInternal, r)
		}
	}()
	return fn()
}

func (s *Session) bmcState() *satState {
	if s.bmc == nil {
		sol := s.c.newSolver()
		u := s.c.newUnroller(sol)
		u.InitZero()
		s.bmc = &satState{s: sol, u: u, pc: propCache{}}
	} else {
		s.Reuses++
	}
	return s.bmc
}

func (s *Session) indState() *satState {
	if s.ind == nil {
		sol := s.c.newSolver()
		s.ind = &satState{s: sol, u: s.c.newUnroller(sol), pc: propCache{}}
	}
	return s.ind
}

// checkCombinational is the single-frame SAT check against the persistent
// bmc state (InitZero is a no-op without registers).
func (s *Session) checkCombinational(b *budget, a *assertion.Assertion) (*Result, error) {
	return s.guard(func() (*Result, error) {
		st := s.bmcState()
		assumps, err := windowAssumptions(st.u, s.c.d, a, 0, st.pc)
		if err != nil {
			return nil, err
		}
		verdict, cause := b.solve(st.s, assumps...)
		switch verdict {
		case sat.Sat:
			ctx := s.c.canonicalCtx(b, st.s, st.u, assumps, a, 1)
			return &Result{Status: StatusFalsified, Ctx: ctx, Method: "sat-comb", Depth: 1}, nil
		case sat.Unsat:
			return &Result{Status: StatusProved, Method: "sat-comb", Depth: 1}, nil
		default:
			if cause != nil {
				return &Result{Status: StatusUnknown, Method: "sat-comb", Depth: 1, Degraded: true, Cause: cause}, nil
			}
			return &Result{Status: StatusBounded, Method: "sat-comb", Depth: 1}, nil
		}
	})
}

// checkSAT routes a sequential check either to the racing portfolio (when
// enabled, the check is predicted hard — racing an easy check would pay more
// in lane setup than the solve costs — and the outcome model gives the
// induction lanes a chance to win; see predictRaceWin) or to the solo
// incremental ladder. Both paths produce identical verdicts and
// counterexample bytes; only wall-clock differs (see portfolio.go for the
// argument).
func (s *Session) checkSAT(b *budget, a *assertion.Assertion) (*Result, error) {
	if !s.solo && s.c.opts.Portfolio >= 2 {
		if _, hard := s.c.PredictHard(a); hard && s.c.predictRaceWin(a) {
			return s.guard(func() (*Result, error) {
				return s.checkSATPortfolio(b, a)
			})
		}
	}
	return s.checkSATSolo(b, a)
}

// checkSATSolo runs the BMC + k-induction ladder under the budget against the
// persistent states. The verdict degrades gracefully: a budget hit during BMC
// reports the deepest fully explored bound (or StatusUnknown if not even the
// first window completed); a budget hit during induction falls back to the
// completed BMC bound. A falsification found before the budget dies is always
// reported — budget pressure can weaken a claim but never invert one.
func (s *Session) checkSATSolo(b *budget, a *assertion.Assertion) (*Result, error) {
	return s.guard(func() (*Result, error) {
		c := s.c
		coff := a.Consequent.Offset
		minFrames := coff + 1

		// Bounded model checking from reset, incremental in the unroll depth.
		// BMC gets 60% of the remaining wall budget; induction inherits the rest.
		bmcBudget := b.slice(0.6)
		st := s.bmcState()
		maxDepth := c.opts.MaxBMCDepth
		if maxDepth < minFrames {
			maxDepth = minFrames
		}
		bounded := func(lastOK int, cause error) (*Result, error) {
			if lastOK < minFrames {
				// Not even the shortest window was decided: nothing to claim.
				return nil, cause
			}
			return &Result{Status: StatusBounded, Method: "bmc-bounded", Depth: lastOK, Degraded: true, Cause: cause}, nil
		}
		for depth := minFrames; depth <= maxDepth; depth++ {
			fsp := b.span("mc.bmc_frame", telemetry.Int("depth", int64(depth)))
			for st.u.Frames() < depth {
				st.u.AddFrame()
			}
			assumps, err := windowAssumptions(st.u, c.d, a, depth-minFrames, st.pc)
			if err != nil {
				fsp.End(telemetry.String("result", "error"))
				return nil, err
			}
			bmcBudget.sp = fsp
			verdict, cause := bmcBudget.solve(st.s, assumps...)
			bmcBudget.sp = b.sp
			fsp.End(telemetry.String("result", verdict.String()))
			if verdict == sat.Sat {
				ctx := c.canonicalCtx(bmcBudget, st.s, st.u, assumps, a, depth)
				return &Result{Status: StatusFalsified, Ctx: ctx, Method: "bmc", Depth: depth}, nil
			}
			if verdict == sat.Unknown && cause != nil {
				return bounded(depth-1, cause)
			}
		}

		// k-induction against the persistent free-init state. This check's
		// hypothesis clauses are guarded by a fresh activation literal, which
		// is retired (unit ¬act) on every exit path below.
		is := s.indState()
		act := sat.Lit(is.s.NewVar())
		s.Activations++
		defer func() {
			// Retire this property's hypothesis clauses, then physically drop
			// them (and any learnt clause subsumed by ¬act) from the clause DB
			// and watch lists: retired clauses are permanently satisfied, but
			// until simplified they tax every later propagation on the shared
			// solver.
			is.s.AddClause(act.Neg())
			is.s.Simplify()
		}()
		hyp := 0 // hypothesis windows encoded so far for this act
		for k := 1; k <= c.opts.MaxInduction; k++ {
			frames := k + coff + 1
			for is.u.Frames() < frames {
				is.u.AddFrame()
			}
			for ; hyp < k; hyp++ {
				lits, err := windowClause(is.u, c.d, a, hyp, is.pc)
				if err != nil {
					return nil, err
				}
				is.s.AddClause(append(lits, act.Neg())...)
			}
			assumps, err := windowAssumptions(is.u, c.d, a, k, is.pc)
			if err != nil {
				return nil, err
			}
			ksp := b.span("mc.induction_step", telemetry.Int("k", int64(k)))
			kb := *b
			kb.sp = ksp
			verdict, cause := kb.solve(is.s, append([]sat.Lit{act}, assumps...)...)
			ksp.End(telemetry.Bool("proved", verdict == sat.Unsat))
			if cause != nil {
				return &Result{Status: StatusBounded, Method: "bmc-bounded", Depth: maxDepth, Degraded: true, Cause: cause}, nil
			}
			if verdict == sat.Unsat {
				return &Result{Status: StatusProved, Method: fmt.Sprintf("k-induction(k=%d)", k), Depth: k}, nil
			}
		}
		return &Result{Status: StatusBounded, Method: "bmc-bounded", Depth: maxDepth}, nil
	})
}

// ---------------------------------------------------------------------------
// Canonical counterexamples
// ---------------------------------------------------------------------------

// coneInputs returns the primary inputs in the union of the sequential cones
// of every signal the assertion references, sorted by name. Only these bits
// can influence the assertion, so a counterexample is fully described by
// their values.
func (c *Checker) coneInputs(a *assertion.Assertion) []*rtl.Signal {
	seen := map[*rtl.Signal]bool{}
	add := func(name string) {
		sig := c.d.Signal(name)
		if sig == nil {
			return
		}
		for s := range cone.Of(c.d, sig) {
			seen[s] = true
		}
	}
	for _, p := range a.Antecedent {
		add(p.Signal)
	}
	add(a.Consequent.Signal)
	return cone.Inputs(c.d, seen)
}

// canonicalCtx turns the current satisfying model into the canonical
// counterexample: the lexicographically smallest assignment of the
// assertion's cone input bits (frame-major, inputs by name, bits LSB first)
// that still satisfies the violation query in base. The result is a property
// of the formula, so the fresh and incremental paths — and every solver
// history — produce byte-identical stimuli.
//
// Minimization is model-guided: bits already 0 in the current model are fixed
// for free, and each 1-bit costs at most one (cheap, heavily-assumed) solve.
// Before falling back to per-bit probes, each fresh model gets one batch
// probe that tries to zero every remaining 1-bit at once — lex-min
// counterexamples are mostly zeros, so the common case collapses to a single
// solve. A batch Sat answer is exactly the lex-min tail (the all-zero
// continuation is minimal by definition); a batch Unsat answer reveals
// nothing about individual bits, so the loop resumes per-bit probing and the
// result is unchanged either way.
// If the budget dies mid-minimization the remaining bits keep the values of
// the last full model, which still satisfies base plus everything fixed so
// far — the stimulus stays a genuine counterexample, merely non-canonical
// (the same wall-clock caveat as every other budget degradation).
//
// Must be called immediately after a Sat verdict on s, while the model is
// readable.
func (c *Checker) canonicalCtx(b *budget, s *sat.Solver, u *cnf.Unroller, base []sat.Lit, a *assertion.Assertion, depth int) sim.Stimulus {
	// One span for the whole minimization; the probe storm below runs on a
	// quieted budget so its micro-solves do not each journal a sat.solve line
	// (they still hit the sat.* counters via the solver hookup).
	csp := b.span("mc.ctx_canon", telemetry.Int("depth", int64(depth)))
	defer csp.End()
	return c.canonicalStim(b.quiet(), s, u, base, c.coneInputs(a), depth)
}

// canonicalStim is the lex-min model minimization over an explicit input-
// signal set, shared by assertion counterexamples (canonicalCtx) and
// reachability witnesses (Session.Reach). base is the assumption set that
// pins the property/obligation; ins orders the minimized bits (frame-major,
// inputs by name, bits LSB first).
func (c *Checker) canonicalStim(b *budget, s *sat.Solver, u *cnf.Unroller, base []sat.Lit, ins []*rtl.Signal, depth int) sim.Stimulus {
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
	batch := true // one batch-zero attempt per model snapshot
	for i, cb := range bits {
		if !cb.enc {
			continue // unconstrained: already at its canonical 0
		}
		if !vals[i] {
			// The current model witnesses satisfiability with this bit 0.
			fixed = append(fixed, cb.lit.Neg())
			continue
		}
		if batch {
			batch = false
			probe := append(fixed[:len(fixed):len(fixed)], cb.lit.Neg())
			for j := i + 1; j < len(bits); j++ {
				if bits[j].enc && vals[j] {
					probe = append(probe, bits[j].lit.Neg())
				}
			}
			verdict, cause := b.solve(s, probe...)
			if verdict == sat.Unknown || cause != nil {
				break
			}
			if verdict == sat.Sat {
				// Every remaining 1-bit zeroes at once: the lex-min tail.
				fixed = append(fixed, cb.lit.Neg())
				vals[i] = false
				for j := i + 1; j < len(bits); j++ {
					if bits[j].enc {
						vals[j] = s.ValueLit(bits[j].lit)
					}
				}
				continue
			}
			// Batch Unsat: no per-bit information — probe this bit alone.
		}
		probe := append(fixed[:len(fixed):len(fixed)], cb.lit.Neg())
		verdict, cause := b.solve(s, probe...)
		if verdict == sat.Unknown || cause != nil {
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
			batch = true // fresh model: a batch attempt may pay off again
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
