// Racing SAT portfolio: predicted-hard sequential checks on a Session race
// diversified solver lanes instead of walking the BMC-then-induction ladder
// sequentially. Two persistent lane sets are kept per Session:
//
//   - BMC lanes: reset-constrained unrollings, each walking the bounded ladder
//     depth by depth under a differently-configured solver (sat.PortfolioConfig).
//   - Induction lanes: free-initial-state unrollings walking k = 1, 2, ...
//
// The lanes race concurrently and the first decisive verdict wins: a BMC Sat
// at depth d falsifies; an induction Unsat at k proves — but only once the BMC
// lanes have cleared the base case (see the gate below). Losing lanes are
// cancelled; what they learned is not lost, because lanes within a set share
// learned clauses through a sat.ClausePool.
//
// # Why sharing is sound
//
// Clause sharing requires that a variable index mean the same thing to every
// participant. Lane sets maintain that by construction: every live member of a
// set executes the identical sequence of encode operations (AddFrame,
// proposition gadgets, hypothesis gadgets) in the identical order, so the
// NewVar streams agree index for index. During a race the lanes advance at
// different speeds, which makes one member's stream a prefix of another's —
// still aligned on the shared prefix. Exporters only publish clauses over
// variables they had allocated before the current solve (Solver.ShareVarCap),
// and importers skip any clause mentioning a variable they have not yet
// allocated; after every race the coordinator replays the encode steps on the
// laggards (all encode paths are memoized and idempotent) so the set is fully
// aligned again before the next check.
//
// Alignment makes sharing syntactically safe; soundness needs the shared
// clause to be *implied* by the importer's formula. Both lane-set formulas are
// purely definitional — frames define next-state functions, InitZero pins the
// reset frame, proposition gadgets define window literals, and (unlike the
// solo induction state, which asserts activation-guarded hypothesis clauses)
// the induction lanes encode the "property holds at window t" hypotheses as
// definitional OR-gadget literals that are merely *assumed* per solve. With no
// property-specific clauses in any lane's formula, every learnt is a
// consequence of the common definitional prefix and therefore sound in every
// member, across properties and across checks. The BMC and induction sets do
// NOT share with each other: their formulas differ (reset constraint) and
// their variable streams diverge, so each set has its own pool.
//
// # Why verdicts are byte-identical to the single-solver path
//
//   - Falsified: each BMC lane walks depths in ascending order, so the first
//     Sat depth any lane reports is the minimum Sat depth — a property of the
//     formula, equal to the sequential path's depth. The counterexample is
//     canonicalized (lex-min over cone inputs) before the lane posts it, and
//     lex-min is a property of the formula too, so the bytes cannot depend on
//     which lane won or when it was cancelled.
//   - Proved: each induction lane walks k in ascending order, so the reported
//     k is the minimum step-Unsat k. The coordinator releases the verdict only
//     once bmcCleared >= min(k+coff, maxDepth): the cleared depths are exactly
//     the base case, and beyond them k-induction excludes counterexamples at
//     every depth, so the sequential path would have cleared its full ladder
//     and returned the identical "k-induction(k=...)" result. The same
//     argument shows Falsified and gated-Proved are mutually exclusive, so the
//     race has one possible decisive outcome.
//   - Degraded verdicts reproduce the sequential ladder's mapping from the
//     aggregated lane outcomes (see the switch at the end of the coordinator).
package mc

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"goldmine/internal/assertion"
	"goldmine/internal/sat"
	"goldmine/internal/sim"
	"goldmine/internal/telemetry"
)

// raceMember is one persistent portfolio lane: a diversified solver plus its
// unrolling and encode caches. Members survive across checks (that is where
// the incremental speedup comes from) and within a set stay variable-aligned
// by executing identical encode sequences.
type raceMember struct {
	satState
	id   uint64 // ShareID within the set's pool (1-based)
	dead bool   // quarantined after a panic; skipped for the Session's lifetime
	// hyp memoizes induction-hypothesis gadget literals per (assertion, window)
	// so re-checks assume the same definitional literal instead of re-encoding.
	hyp map[hypKey]sat.Lit
	// reached is per-race scratch: the last ladder position this member's lane
	// started, read by the coordinator after the lanes are joined to compute
	// the catch-up target.
	reached int
}

type hypKey struct {
	a  string // assertion.CanonicalKey
	t0 int
}

// raceSet is one lane set (BMC or induction) with its shared clause pool. The
// pool's lifetime is tied to the member set: if the set is rebuilt the pool is
// too, because pooled clauses are only meaningful in the set's variable space.
type raceSet struct {
	members []*raceMember
	pool    *sat.ClausePool
}

// live returns the non-quarantined members.
func (rs *raceSet) live() []*raceMember {
	var out []*raceMember
	for _, m := range rs.members {
		if !m.dead {
			out = append(out, m)
		}
	}
	return out
}

// raceSets lazily builds the Session's lane sets: ceil(N/2) BMC lanes and
// floor(N/2) induction lanes for Portfolio = N. Member i of the combined
// lineup gets sat.PortfolioConfig(i), so BMC lane 0 runs the exact
// single-solver strategy and later lanes diversify.
func (s *Session) raceSets() (*raceSet, *raceSet) {
	n := s.c.opts.Portfolio
	nb := (n + 1) / 2
	ni := n / 2
	if s.raceBMC == nil {
		s.raceBMC = s.newRaceSet(nb, 0, true)
	}
	if s.raceInd == nil {
		s.raceInd = s.newRaceSet(ni, nb, false)
	}
	return s.raceBMC, s.raceInd
}

func (s *Session) newRaceSet(n, cfgBase int, initZero bool) *raceSet {
	rs := &raceSet{}
	if n >= 2 {
		rs.pool = sat.NewClausePool(0)
	}
	for i := 0; i < n; i++ {
		sol := s.c.newSolverWithConfig(sat.PortfolioConfig(cfgBase + i))
		u := s.c.newUnroller(sol)
		if initZero {
			u.InitZero()
		}
		sol.Share = rs.pool // nil when the set is a singleton
		sol.ShareID = uint64(i + 1)
		m := &raceMember{
			satState: satState{s: sol, u: u, pc: propCache{}},
			id:       uint64(i + 1),
			hyp:      map[hypKey]sat.Lit{},
		}
		rs.members = append(rs.members, m)
	}
	return rs
}

// raceBMCStep brings a BMC member to the given ladder depth and returns the
// window assumptions for it. Idempotent: frames already added and propositions
// already encoded are cache hits, so replaying the ladder from minFrames is
// exactly the catch-up operation that re-aligns a lagging member.
func (s *Session) raceBMCStep(m *raceMember, a *assertion.Assertion, depth, minFrames int) ([]sat.Lit, error) {
	for m.u.Frames() < depth {
		m.u.AddFrame()
	}
	return windowAssumptions(m.u, s.c.d, a, depth-minFrames, m.pc)
}

// raceIndStep brings an induction member to step k and returns the assumption
// set for the step query: the hypothesis literals h_0..h_{k-1} plus the
// negated-property window at k. Idempotent like raceBMCStep.
//
// Each h_t is a definitional OR gadget over the window clause at t
// (h <-> l1 v ... v ln): assuming h asserts "property holds at window t"
// exactly like the solo path's activation-guarded clause, but the clause
// database stays property-free, which is what makes clause sharing sound
// across induction lanes (see the package comment).
func (s *Session) raceIndStep(m *raceMember, a *assertion.Assertion, k, coff int) ([]sat.Lit, error) {
	frames := k + coff + 1
	for m.u.Frames() < frames {
		m.u.AddFrame()
	}
	key := a.CanonicalKey()
	assumps := make([]sat.Lit, 0, k+len(a.Antecedent)+1)
	for t0 := 0; t0 < k; t0++ {
		hk := hypKey{a: key, t0: t0}
		h, ok := m.hyp[hk]
		if !ok {
			lits, err := windowClause(m.u, s.c.d, a, t0, m.pc)
			if err != nil {
				return nil, err
			}
			h = sat.Lit(m.s.NewVar())
			cl := make([]sat.Lit, 0, len(lits)+1)
			cl = append(cl, h.Neg())
			cl = append(cl, lits...)
			m.s.AddClause(cl...) // h -> (l1 v ... v ln)
			for _, l := range lits {
				m.s.AddClause(l.Neg(), h) // li -> h
			}
			m.hyp[hk] = h
		}
		assumps = append(assumps, h)
	}
	win, err := windowAssumptions(m.u, s.c.d, a, k, m.pc)
	if err != nil {
		return nil, err
	}
	return append(assumps, win...), nil
}

// laneBudget derives one lane's resource envelope from the parent check
// budget: its own cancellable context, the parent deadline, a private copy of
// the work pool (each lane may spend up to the full remainder — the parent is
// charged the maximum over lanes afterwards, approximating what the single
// path would have spent), a private spent counter, and no telemetry span (the
// coordinator emits one sat.portfolio span instead of per-lane storms).
func laneBudget(b *budget, ctx context.Context) *budget {
	lb := &budget{ctx: ctx, deadline: b.deadline, spent: new(int64)}
	if b.workLeft != nil {
		w := *b.workLeft
		lb.workLeft = &w
	}
	return lb
}

// Lane -> coordinator events.
type raceEventKind int

const (
	evCleared   raceEventKind = iota // BMC lane finished depth Unsat
	evFalsified                      // BMC lane found and canonicalized a counterexample
	evBMCDone                        // BMC lane exhausted the ladder, all Unsat
	evProved                         // induction lane got step-Unsat at k
	evIndDone                        // induction lane exhausted k without an Unsat
	evDead                           // lane stopped on a budget/cancellation cause
	evErr                            // lane hit a hard (non-budget) error
	evPanic                          // lane panicked; member quarantined
)

type raceEvent struct {
	kind  raceEventKind
	depth int // evCleared, evFalsified
	k     int // evProved
	stim  sim.Stimulus
	cause error // evDead
	err   error // evErr
	bmc   bool  // which set the lane belongs to
	spent int64 // lane budget's spent total, posted with terminal events
}

// runBMCLane walks the bounded ladder on one member, posting progress and the
// terminal outcome. Runs in its own goroutine; recovers panics into evPanic
// and quarantines the member.
func (s *Session) runBMCLane(m *raceMember, lb *budget, a *assertion.Assertion, minFrames, maxDepth int, ev chan<- raceEvent) {
	defer func() {
		if r := recover(); r != nil {
			m.dead = true
			ev <- raceEvent{kind: evPanic, bmc: true, spent: *lb.spent,
				err: fmt.Errorf("%w: portfolio bmc lane panic: %v", ErrEngineInternal, r)}
		}
	}()
	c := s.c
	for depth := minFrames; depth <= maxDepth; depth++ {
		m.reached = depth
		assumps, err := s.raceBMCStep(m, a, depth, minFrames)
		if err != nil {
			ev <- raceEvent{kind: evErr, bmc: true, err: err, spent: *lb.spent}
			return
		}
		m.s.ShareVarCap = m.s.NumVars()
		verdict, scope, cause := lb.solveQuery(m.u, assumps)
		switch {
		case verdict == sat.Sat:
			// Canonicalize before posting: the lex-min stimulus is a formula
			// property, so every lane that reaches this depth produces the
			// identical bytes, and cancellation cannot interrupt the winner.
			stim := c.canonicalStim(lb, m.u, assumps, scope, c.coneInputs(a), depth)
			ev <- raceEvent{kind: evFalsified, bmc: true, depth: depth, stim: stim, spent: *lb.spent}
			return
		case verdict == sat.Unknown:
			ev <- raceEvent{kind: evDead, bmc: true, cause: cause, spent: *lb.spent}
			return
		}
		ev <- raceEvent{kind: evCleared, bmc: true, depth: depth}
		if lb.ctx.Err() != nil {
			ev <- raceEvent{kind: evDead, bmc: true, spent: *lb.spent,
				cause: fmt.Errorf("%w: %v", ErrCanceled, lb.ctx.Err())}
			return
		}
		// Cooperative step boundary: on few-core hosts the Go scheduler only
		// preempts a compute-bound lane every ~10ms, long enough for one lane
		// to burn its whole ladder before its rivals run at all. Yielding after
		// every rung keeps the lanes interleaved at solve granularity, which is
		// what lets the coordinator stop the race at the first decisive rung.
		runtime.Gosched()
	}
	ev <- raceEvent{kind: evBMCDone, bmc: true, spent: *lb.spent}
}

// runIndLane walks k-induction steps on one member.
func (s *Session) runIndLane(m *raceMember, lb *budget, a *assertion.Assertion, maxInd, coff int, ev chan<- raceEvent) {
	defer func() {
		if r := recover(); r != nil {
			m.dead = true
			ev <- raceEvent{kind: evPanic, spent: *lb.spent,
				err: fmt.Errorf("%w: portfolio induction lane panic: %v", ErrEngineInternal, r)}
		}
	}()
	for k := 1; k <= maxInd; k++ {
		m.reached = k
		assumps, err := s.raceIndStep(m, a, k, coff)
		if err != nil {
			ev <- raceEvent{kind: evErr, err: err, spent: *lb.spent}
			return
		}
		m.s.ShareVarCap = m.s.NumVars()
		verdict, cause := lb.solve(m.s, nil, assumps...)
		switch {
		case verdict == sat.Unsat:
			ev <- raceEvent{kind: evProved, k: k, spent: *lb.spent}
			return
		case verdict == sat.Unknown:
			ev <- raceEvent{kind: evDead, cause: cause, spent: *lb.spent}
			return
		}
		if lb.ctx.Err() != nil {
			ev <- raceEvent{kind: evDead, spent: *lb.spent,
				cause: fmt.Errorf("%w: %v", ErrCanceled, lb.ctx.Err())}
			return
		}
		runtime.Gosched() // see runBMCLane: keep lanes interleaved per rung
	}
	ev <- raceEvent{kind: evIndDone, spent: *lb.spent}
}

// checkSATPortfolio is the racing replacement for the sequential checkSAT
// ladder. Called only for predicted-hard checks with Portfolio >= 2.
func (s *Session) checkSATPortfolio(b *budget, a *assertion.Assertion) (*Result, error) {
	c := s.c
	coff := a.Consequent.Offset
	minFrames := coff + 1
	maxDepth := c.opts.MaxBMCDepth
	if maxDepth < minFrames {
		maxDepth = minFrames
	}
	maxInd := c.opts.MaxInduction

	bmcSet, indSet := s.raceSets()
	bmc, ind := bmcSet.live(), indSet.live()
	if len(bmc) == 0 || len(ind) == 0 {
		// A whole lane set is quarantined: race integrity is gone for this
		// Session, fall back to the solo ladder.
		return s.checkSATSolo(b, a)
	}
	s.Races++
	c.mtr.races.Inc()
	psp := b.span("sat.portfolio",
		telemetry.Int("bmc_lanes", int64(len(bmc))),
		telemetry.Int("ind_lanes", int64(len(ind))))

	// Buffered so lanes can always post every event they will ever produce
	// without blocking, even if the coordinator has already returned.
	ev := make(chan raceEvent, len(bmc)*(maxDepth+2)+len(ind)*(maxInd+2))
	ctx, cancel := context.WithCancel(b.ctx)
	defer cancel()
	var wg sync.WaitGroup
	for _, m := range bmc {
		m.reached = 0
		wg.Add(1)
		go func(m *raceMember) {
			defer wg.Done()
			s.runBMCLane(m, laneBudget(b, ctx), a, minFrames, maxDepth, ev)
		}(m)
	}
	for _, m := range ind {
		m.reached = 0
		wg.Add(1)
		go func(m *raceMember) {
			defer wg.Done()
			s.runIndLane(m, laneBudget(b, ctx), a, maxInd, coff, ev)
		}(m)
	}

	var (
		bmcCleared  int  // deepest depth any lane finished Unsat
		bmcComplete bool // some lane exhausted the whole ladder
		indDone     bool // some lane exhausted k without a proof
		provedK     int  // minimal step-Unsat k posted (0 = none yet)
		falsified   *raceEvent
		bmcCause    error // first budget cause from a BMC lane
		indCause    error
		hardErr     error
		maxSpent    int64
		active      = len(bmc) + len(ind)
	)
	decisive := func() bool {
		if falsified != nil {
			return true
		}
		if provedK > 0 {
			gate := provedK + coff
			if gate > maxDepth {
				gate = maxDepth
			}
			return bmcCleared >= gate
		}
		return false
	}
	for active > 0 && !decisive() && hardErr == nil {
		e := <-ev
		if e.spent > maxSpent {
			maxSpent = e.spent
		}
		switch e.kind {
		case evCleared:
			if e.depth > bmcCleared {
				bmcCleared = e.depth
			}
			continue // non-terminal: the lane is still running
		case evFalsified:
			falsified = &e
			bmcCleared = e.depth - 1
		case evBMCDone:
			bmcComplete = true
			bmcCleared = maxDepth
		case evProved:
			// Ascending-k lanes all discover the same minimal k; keep the
			// smallest in case a straggler posts late.
			if provedK == 0 || e.k < provedK {
				provedK = e.k
			}
		case evIndDone:
			indDone = true
		case evDead:
			if e.bmc {
				if bmcCause == nil {
					bmcCause = e.cause
				}
			} else if indCause == nil {
				indCause = e.cause
			}
		case evErr:
			hardErr = e.err
		case evPanic:
			// Member quarantined by the lane itself; racing continues on the
			// survivors. The terminal mapping below treats a set with neither
			// completion nor budget cause as internally faulted.
		}
		active--
	}
	cancel()
	wg.Wait()
	// Drain stragglers posted between the last receive and the join so their
	// spent totals are accounted.
	for {
		select {
		case e := <-ev:
			if e.spent > maxSpent {
				maxSpent = e.spent
			}
			if e.kind == evFalsified && falsified == nil {
				falsified = &e
			}
			if e.kind == evProved && (provedK == 0 || e.k < provedK) {
				provedK = e.k
			}
			if e.kind == evBMCDone {
				bmcComplete = true
				bmcCleared = maxDepth
			}
			if e.kind == evCleared && e.depth > bmcCleared {
				bmcCleared = e.depth
			}
		default:
			// Charge the parent what the most expensive lane spent: the
			// sequential path would have run one such computation.
			b.charge(maxSpent)
			b.raced = true
			if b.spent != nil {
				// Feed the difficulty predictor the winning lane's own spend
				// when one falsified — that is what the solo ladder would have
				// cost, since it leads with the same BMC walk. For proved or
				// degraded outcomes the max over lanes is the closest estimate.
				if falsified != nil {
					*b.spent += falsified.spent
				} else {
					*b.spent += maxSpent
				}
			}
			s.raceCatchUp(a, minFrames, coff)
			res, err := s.raceVerdict(b, a, falsified, provedK, bmcCleared, bmcComplete,
				indDone, bmcCause, indCause, hardErr, minFrames, maxDepth, coff)
			if psp != nil {
				status, method := "error", "none"
				if res != nil {
					status, method = res.Status.String(), res.Method
				}
				psp.End(telemetry.String("status", status), telemetry.String("method", method))
			}
			return res, err
		}
	}
}

// raceVerdict maps the aggregated lane outcomes onto the sequential ladder's
// results.
func (s *Session) raceVerdict(b *budget, a *assertion.Assertion, falsified *raceEvent,
	provedK, bmcCleared int, bmcComplete, indDone bool, bmcCause, indCause, hardErr error,
	minFrames, maxDepth, coff int) (*Result, error) {
	if hardErr != nil {
		return nil, hardErr
	}
	if falsified != nil {
		s.c.mtr.raceBMCWins.Inc()
		return &Result{Status: StatusFalsified, Ctx: falsified.stim, Method: "bmc", Depth: falsified.depth}, nil
	}
	if provedK > 0 {
		gate := provedK + coff
		if gate > maxDepth {
			gate = maxDepth
		}
		if bmcCleared >= gate {
			s.c.mtr.raceIndWins.Inc()
			return &Result{Status: StatusProved, Method: fmt.Sprintf("k-induction(k=%d)", provedK), Depth: provedK}, nil
		}
	}
	// No decisive verdict: reproduce the sequential degradation ladder.
	switch {
	case !bmcComplete:
		if bmcCause == nil {
			// Every BMC lane ended without finishing, without a budget cause,
			// and without a counterexample: the set panicked itself empty.
			return nil, fmt.Errorf("%w: all portfolio bmc lanes quarantined", ErrEngineInternal)
		}
		if bmcCleared < minFrames {
			return nil, bmcCause
		}
		return &Result{Status: StatusBounded, Method: "bmc-bounded", Depth: bmcCleared, Degraded: true, Cause: bmcCause}, nil
	case !indDone:
		if indCause == nil {
			return nil, fmt.Errorf("%w: all portfolio induction lanes quarantined", ErrEngineInternal)
		}
		return &Result{Status: StatusBounded, Method: "bmc-bounded", Depth: maxDepth, Degraded: true, Cause: indCause}, nil
	default:
		return &Result{Status: StatusBounded, Method: "bmc-bounded", Depth: maxDepth}, nil
	}
}

// raceCatchUp re-aligns every live member of both sets to the furthest ladder
// position any lane reached this race, by replaying the (idempotent) encode
// steps the cancelled lanes skipped. After it returns, all live members of a
// set have executed identical encode sequences again and the next race can
// share clauses over the full variable space. An encode failure here leaves
// the sets unalignable, so they are dropped and rebuilt lazily on the next
// portfolio check.
func (s *Session) raceCatchUp(a *assertion.Assertion, minFrames, coff int) {
	defer func() {
		if r := recover(); r != nil {
			s.raceBMC, s.raceInd = nil, nil
		}
	}()
	target := 0
	for _, m := range s.raceBMC.live() {
		if m.reached > target {
			target = m.reached
		}
	}
	for _, m := range s.raceBMC.live() {
		for d := minFrames; d <= target; d++ {
			if _, err := s.raceBMCStep(m, a, d, minFrames); err != nil {
				s.raceBMC, s.raceInd = nil, nil
				return
			}
		}
	}
	target = 0
	for _, m := range s.raceInd.live() {
		if m.reached > target {
			target = m.reached
		}
	}
	for _, m := range s.raceInd.live() {
		for k := 1; k <= target; k++ {
			if _, err := s.raceIndStep(m, a, k, coff); err != nil {
				s.raceBMC, s.raceInd = nil, nil
				return
			}
		}
	}
}
