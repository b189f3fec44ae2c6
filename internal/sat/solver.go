// Package sat implements an incremental CDCL (conflict-driven clause
// learning) SAT solver in the MiniSat lineage: two-literal watching, first-UIP
// conflict analysis with clause learning and non-chronological backjumping,
// EVSIDS variable activity, phase saving, Luby restarts, and solving under
// assumptions with an optional per-call decision scope (SolveScoped). It is
// the decision procedure behind the GoldMine formal verification engine
// (bounded model checking and k-induction).
//
// Clauses live in one pointer-free arena of 32-bit words addressed by a
// cref (arena.go), the assignment is one value byte per literal, and the
// watcher of a two-literal clause implies the other literal without reading
// the clause, so propagation makes at most one memory access per clause it
// visits.
//
// Variables are positive integers. A literal is a signed variable: +v is the
// positive literal, -v the negation, as in DIMACS.
//
// # Concurrency contract
//
// A *Solver is single-goroutine: it keeps trail, watcher, and activity state
// across calls and must never be shared between goroutines without external
// synchronization. Distinct Solver instances share nothing — the package has
// no mutable package-level state (only sentinel error values) and no pooled
// scratch buffers — so the one-solver-per-goroutine pattern used by the
// parallel mining scheduler is safe by construction. Cancellation is
// cooperative: SolveCtx polls its context between propagations, so the owner
// goroutine cancels a search via the context, not by touching the solver.
package sat

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"
)

// Budget-stop causes reported by StopCause after an Unknown verdict.
var (
	// ErrPropagationBudget: MaxPropagations was exhausted.
	ErrPropagationBudget = errors.New("sat: propagation budget exhausted")
	// ErrDeadline: the Deadline passed mid-search.
	ErrDeadline = errors.New("sat: deadline exceeded")
)

// ErrZeroLit is returned by AddClause when a clause contains literal 0.
var ErrZeroLit = errors.New("sat: zero literal")

// Lit is a DIMACS-style literal: +v or -v for variable v >= 1.
type Lit int

// Var returns the literal's variable.
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return -l }

// internal literal encoding: variable index v (1-based) maps to 2v (positive)
// and 2v+1 (negative).
type ilit uint32

func toInternal(l Lit) ilit {
	if l > 0 {
		return ilit(2 * l)
	}
	return ilit(-2*l + 1)
}

func fromInternal(il ilit) Lit {
	v := Lit(il >> 1)
	if il&1 == 1 {
		return -v
	}
	return v
}

func (il ilit) neg() ilit { return il ^ 1 }
func (il ilit) vix() int  { return int(il >> 1) }

// lbool is a three-valued boolean.
type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// watcher is one entry of a watch list: the watched clause (with the
// binaryWatch flag for a two-literal clause) and a blocker, a literal of the
// clause whose truth lets propagation skip the clause without reading it.
type watcher struct {
	cref    cref
	blocker ilit
}

type varData struct {
	level  int
	reason cref // crefUndef unless the variable was implied by a clause
	phase  bool // saved phase: last assigned polarity
	seen   bool
	// inScope marks the variable as a member of the in-flight solve's
	// decision scope; set at the solve's first decision (loadOrder), cleared
	// by endScope, false between calls.
	inScope bool
}

// Status is the solver verdict.
type Status int

// Solve outcomes.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// Solver is an incremental CDCL SAT solver.
type Solver struct {
	vars []varData // index 1..n
	// activity is EVSIDS variable activity, kept out of varData in a dense
	// slice of its own: the decision heap's comparisons are the hottest
	// random-access pattern in the solver, and packing the activities
	// together keeps them cache-resident.
	activity []float64 // index 1..n, parallel to vars
	// vals is the assignment, indexed by internal literal: vals[il] is il's
	// value, so the propagation loop reads a literal's truth in one byte
	// load with no sign arithmetic.
	vals []lbool
	// ca stores every clause; clauses and learnts list the live problem and
	// learnt clauses in the order they were added.
	ca      arena
	clauses []cref
	learnts []cref
	// watches is indexed by internal literal (2v / 2v+1): a flat slice
	// instead of a map keeps the unit-propagation inner loop free of hashing
	// and map-growth allocations (it is the hottest path of the checker).
	watches [][]watcher

	trail    []ilit
	trailLim []int
	qhead    int

	// Scratch buffers, reused across calls: a clause is built in them and
	// then copied into the arena, so adding or learning a clause allocates
	// nothing beyond arena growth.
	learntBuf  []ilit // analyze/minimize
	cleanupBuf []int  // analyze's seen marks
	addBuf     []ilit // AddClause
	dirtyBuf   []ilit // reduceDB's watch lists holding freed clauses

	varInc float64
	claInc float64

	order *activityHeap
	// scopeFn yields the in-flight solve's decision scope (nil: every
	// variable) until the solve's first decision fetches it into scope and
	// marks it; nil from then on. Both live for one SolveScoped call only,
	// like ctx, and scope stays nil for the whole of a solve that never
	// decides.
	scopeFn func() []int
	scope   []int
	// decideHook, when non-nil, sees every decision variable before it is
	// assigned; returning true restarts the search instead. It is a test
	// hook, nil in production.
	decideHook func(v int) (restart bool)
	// compactHook, when non-nil, is asked after every reduceDB and Simplify
	// that left garbage in the arena whether to compact it although less
	// than half of it is garbage. It is a test hook, nil in production.
	compactHook func() (compact bool)

	unsat bool // empty clause derived at level 0

	// prevAssumps is the previous solve's assumption list. Decision level i
	// of the trail left behind holds assumption i-1 and its propagation, so
	// the next solve keeps the levels of the longest common prefix.
	prevAssumps []Lit

	// statistics
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Learned      int64
	Restarts     int64
	// TrailReused counts the literals at decision levels >= 1 that a solve
	// kept from the previous one instead of propagating them again.
	TrailReused int64
	// HeapLoads counts the variables loaded into the decision-order heap by
	// the reloads at a solve's first decision (and after a full restart):
	// the order work a solve pays for its scope.
	HeapLoads int64

	// Counters, when non-nil, receives the deltas of the solver's search
	// statistics (and one solve tick) at the end of every Solve/SolveCtx call.
	// The aggregation is delta-based and paid once per solve, so the search
	// loop itself carries no telemetry cost.
	Counters *SolveCounters

	// MaxPropagations bounds one Solve call; <= 0 means unlimited.
	// Propagations accrue on every search step, so this is a deterministic
	// work budget even on easy instances.
	MaxPropagations int64
	// Deadline bounds one Solve call by wall clock; the zero value means no
	// deadline. Polled every pollInterval propagations.
	Deadline time.Time

	// cancellation/budget state of the in-flight Solve
	ctx       context.Context
	polling   bool
	nextPoll  int64
	propLimit int64
	stopCause error
}

// pollInterval is how many propagations elapse between budget/cancellation
// polls. It is small enough that a cancelled context stops the search within
// well under 100 ms on any realistic workload, and large enough that polling
// is invisible in profiles.
const pollInterval = 2048

// The search strategy is fixed, MiniSat's: Luby restarts scaled by
// restartBase conflicts, EVSIDS variable decay varDecay, learnt-clause
// activity decay claDecay, and negative-first polarity for a variable that
// was never assigned (phase saving takes over after its first assignment).
const (
	restartBase = 100
	varDecay    = 0.95
	claDecay    = 0.999
)

// New creates an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, claInc: 1}
	s.vars = make([]varData, 1) // index 0 unused
	s.activity = make([]float64, 1)
	s.vals = make([]lbool, 2)        // ilits 0,1 unused
	s.watches = make([][]watcher, 2) // ilits 0,1 unused
	s.order = newActivityHeap(s)
	return s
}

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	s.vars = append(s.vars, varData{reason: crefUndef})
	s.activity = append(s.activity, 0)
	s.vals = append(s.vals, lUndef, lUndef)
	s.watches = append(s.watches, nil, nil)
	v := len(s.vars) - 1
	// A fresh variable joins the heap only where the heap covers every
	// variable: a scoped heap holds none outside its scope, and a stale one
	// is reloaded at the next decision anyway.
	if s.scope == nil {
		s.order.push(v)
	}
	return v
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.vars) - 1 }

// ensure grows the variable table to cover v.
func (s *Solver) ensure(v int) {
	for len(s.vars) <= v {
		s.NewVar()
	}
}

func (s *Solver) value(il ilit) lbool { return s.vals[il] }

// AddClause adds a clause (a disjunction of literals). Returns false if the
// formula is already unsatisfiable at level 0. A clause containing literal 0
// is rejected with ErrZeroLit and leaves the solver untouched.
func (s *Solver) AddClause(lits ...Lit) (bool, error) {
	for _, l := range lits {
		if l == 0 {
			return false, fmt.Errorf("%w in clause %v", ErrZeroLit, lits)
		}
	}
	if s.unsat {
		return false, nil
	}
	s.backjump(0) // incremental use: drop the previous model's decisions
	ils := s.addBuf[:0]
	for _, l := range lits {
		s.ensure(l.Var())
		ils = append(ils, toInternal(l))
	}
	s.addBuf = ils
	// Simplify: dedupe, drop false literals, detect tautology/satisfied.
	slices.Sort(ils)
	out := ils[:0]
	var prev ilit
	for i, il := range ils {
		if i > 0 && il == prev {
			continue
		}
		if i > 0 && il == prev.neg() {
			return true, nil // tautology
		}
		switch s.value(il) {
		case lTrue:
			return true, nil // already satisfied at level 0
		case lFalse:
			// drop
		default:
			out = append(out, il)
		}
		prev = il
	}
	ils = out
	switch len(ils) {
	case 0:
		s.unsat = true
		return false, nil
	case 1:
		s.enqueue(ils[0], crefUndef)
		if s.propagate() != crefUndef {
			s.unsat = true
			return false, nil
		}
		return true, nil
	}
	c := s.ca.alloc(ils, false)
	s.clauses = append(s.clauses, c)
	s.watch(c)
	return true, nil
}

// watch adds c's two watchers, on its first two literals.
func (s *Solver) watch(c cref) {
	lits := s.ca.lits(c)
	wc := c
	if len(lits) == 2 {
		wc |= binaryWatch
	}
	s.watches[lits[0].neg()] = append(s.watches[lits[0].neg()], watcher{cref: wc, blocker: lits[1]})
	s.watches[lits[1].neg()] = append(s.watches[lits[1].neg()], watcher{cref: wc, blocker: lits[0]})
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) enqueue(il ilit, reason cref) {
	s.vals[il] = lTrue
	s.vals[il.neg()] = lFalse
	vd := &s.vars[il.vix()]
	vd.level = s.decisionLevel()
	vd.reason = reason
	vd.phase = il&1 == 0
	s.trail = append(s.trail, il)
}

// propagate performs unit propagation; returns a conflicting clause or
// crefUndef.
//
// A watcher whose blocker is true is kept without reading its clause. A
// binary watcher never reads its clause either: its blocker is the other
// literal, implied (or in conflict) at once; only a conflict writes the
// clause, as [other, ¬p], the order the conflict analysis reads. A longer
// clause is normalised so that lits[1] is the falsified watch, then its
// other watch, a replacement watch, or the implication of lits[0] is found,
// as in MiniSat.
func (s *Solver) propagate() cref {
	vals, mem := s.vals, s.ca.mem // neither grows during propagation
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true
		s.qhead++
		s.Propagations++
		falseLit := p.neg()
		ws := s.watches[p]
		i, j := 0, 0
		for i < len(ws) {
			w := ws[i]
			i++
			if vals[w.blocker] == lTrue {
				ws[j] = w
				j++
				continue
			}
			if w.cref&binaryWatch != 0 {
				ws[j] = w
				j++
				if vals[w.blocker] == lFalse {
					c := w.cref &^ binaryWatch
					mem[c+clauseHdr], mem[c+clauseHdr+1] = w.blocker, falseLit
					j += copy(ws[j:], ws[i:])
					s.watches[p] = ws[:j]
					s.qhead = len(s.trail)
					return c
				}
				s.enqueue(w.blocker, w.cref&^binaryWatch)
				continue
			}
			c := w.cref
			start := int(c) + clauseHdr
			end := start + int(mem[c]>>hdrShift)
			lits := mem[start:end:end]
			// Normalize: the falsified watch is lits[0] or [1]; put the other
			// watch at position 0.
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], falseLit
			}
			first := lits[0]
			if vals[first] == lTrue {
				ws[j] = watcher{cref: c, blocker: first}
				j++
				continue
			}
			// Find a new watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if vals[lits[k]] != lFalse {
					lits[1], lits[k] = lits[k], falseLit
					nw := lits[1].neg()
					s.watches[nw] = append(s.watches[nw], watcher{cref: c, blocker: first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			ws[j] = w
			j++
			if vals[first] == lFalse {
				j += copy(ws[j:], ws[i:])
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				return c
			}
			s.enqueue(first, c)
		}
		if j < len(ws) {
			s.watches[p] = ws[:j]
		}
	}
	return crefUndef
}

// analyze performs first-UIP conflict analysis, returning the learnt clause
// (asserting literal first) and the backjump level. The returned slice aliases
// an internal scratch buffer valid until the next analyze call — callers copy
// it when they keep the clause.
func (s *Solver) analyze(conflict cref) ([]ilit, int) {
	learnt := append(s.learntBuf[:0], 0) // slot 0 for the asserting literal
	counter := 0
	var p ilit
	idx := len(s.trail) - 1
	c := conflict
	cleanup := s.cleanupBuf[:0]

	for {
		if s.ca.learnt(c) {
			s.bumpClause(c)
		}
		for _, q := range s.ca.lits(c) {
			if p != 0 && q == p {
				continue
			}
			vd := &s.vars[q.vix()]
			if !vd.seen && vd.level > 0 {
				vd.seen = true
				cleanup = append(cleanup, q.vix())
				s.bumpVar(q.vix())
				if vd.level == s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Pick the next seen literal from the trail.
		for !s.vars[s.trail[idx].vix()].seen {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.vars[p.vix()].seen = false
		counter--
		if counter == 0 {
			break
		}
		c = s.vars[p.vix()].reason
	}
	learnt[0] = p.neg()

	// Clause minimization: drop literals implied by the rest.
	out := learnt[:1]
	for _, q := range learnt[1:] {
		if !s.redundant(q) {
			out = append(out, q)
		}
	}
	learnt = out

	// Backjump level = max level among learnt[1:].
	bj := 0
	for i := 1; i < len(learnt); i++ {
		if lv := s.vars[learnt[i].vix()].level; lv > bj {
			bj = lv
		}
	}
	// Move a literal of level bj into slot 1 (second watch).
	for i := 2; i < len(learnt); i++ {
		if s.vars[learnt[i].vix()].level > s.vars[learnt[1].vix()].level {
			learnt[1], learnt[i] = learnt[i], learnt[1]
		}
	}
	for _, v := range cleanup {
		s.vars[v].seen = false
	}
	s.learntBuf = learnt[:0]
	s.cleanupBuf = cleanup[:0]
	return learnt, bj
}

// redundant reports whether literal q in a learnt clause is implied by its
// reason chain (simple recursive local minimization).
func (s *Solver) redundant(q ilit) bool {
	r := s.vars[q.vix()].reason
	if r == crefUndef {
		return false
	}
	for _, l := range s.ca.lits(r) {
		if l == q.neg() {
			continue
		}
		vd := &s.vars[l.vix()]
		if vd.level == 0 {
			continue
		}
		if !vd.seen {
			return false
		}
	}
	return true
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i < len(s.activity); i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
		// Rescaling can round distinct activities to equal ones, which the
		// index tie-break may order differently: reload before deciding.
		s.order.stale = true
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(c cref) {
	act := s.ca.activity(c) + s.claInc
	s.ca.setActivity(c, act)
	if act > 1e20 {
		for _, lc := range s.learnts {
			s.ca.setActivity(lc, s.ca.activity(lc)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) backjump(level int) {
	if s.decisionLevel() <= level {
		return
	}
	limit := s.trailLim[level]
	// A full restart that undoes nearly the whole trail leaves the heap to be
	// reloaded in one O(scope) pass at the next decision instead of pushing
	// each variable back individually; a stale heap takes no pushes.
	if level == 0 && len(s.trail)-limit > 64 {
		s.order.stale = true
	}
	push := !s.order.stale
	for i := len(s.trail) - 1; i >= limit; i-- {
		il := s.trail[i]
		s.vals[il], s.vals[il.neg()] = lUndef, lUndef
		vd := &s.vars[il.vix()]
		vd.reason = crefUndef
		if push && (s.scope == nil || vd.inScope) {
			s.order.push(il.vix())
		}
	}
	s.trail = s.trail[:limit]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// pickBranch chooses the next decision variable: the unassigned scope
// variable of maximal activity, ties going to the lower index, with the
// saved phase for polarity. A stale heap is reloaded first.
func (s *Solver) pickBranch() ilit {
	if s.order.stale {
		s.loadOrder()
	}
	for {
		v, ok := s.order.pop()
		if !ok {
			return 0
		}
		if s.vals[2*v] == lUndef {
			if s.vars[v].phase {
				return ilit(2 * v)
			}
			return ilit(2*v + 1)
		}
	}
}

// Simplify removes clauses permanently satisfied at decision level 0 from the
// clause database and the watch lists. It exists for incremental use:
// retiring a property's activation literal (adding the unit clause ¬act)
// satisfies every clause guarded by act forever, yet those clauses would keep
// absorbing watch-list traffic on every later propagation. Simplify reclaims
// that bandwidth without changing the formula's models. Reason clauses of the
// level-0 trail are kept so implication records stay intact.
func (s *Solver) Simplify() {
	if s.unsat {
		return
	}
	s.backjump(0)
	if s.propagate() != crefUndef {
		s.unsat = true
		return
	}
	filter := func(cs []cref) []cref {
		kept := cs[:0]
		for _, c := range cs {
			if s.satisfiedAtZero(c) && !s.locked(c) {
				s.unwatch(c)
				s.ca.free(c)
				continue
			}
			kept = append(kept, c)
		}
		return kept
	}
	s.clauses = filter(s.clauses)
	s.learnts = filter(s.learnts)
	s.collect()
}

// unwatch removes c's two watcher entries. The watch invariant guarantees a
// live clause is watched exactly on lits[0] and lits[1], so two targeted
// list edits replace a sweep over every watch list.
func (s *Solver) unwatch(c cref) {
	lits := s.ca.lits(c)
	for i := 0; i < 2; i++ {
		key := lits[i].neg()
		ws := s.watches[key]
		for j := range ws {
			if ws[j].cref&^binaryWatch == c {
				s.watches[key] = append(ws[:j], ws[j+1:]...)
				break
			}
		}
	}
}

// satisfiedAtZero reports whether a clause holds under the level-0 trail alone.
func (s *Solver) satisfiedAtZero(c cref) bool {
	for _, il := range s.ca.lits(c) {
		if s.value(il) == lTrue && s.vars[il.vix()].level == 0 {
			return true
		}
	}
	return false
}

// reduceDB removes half of the least active learnt clauses.
func (s *Solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool {
		return s.ca.activity(s.learnts[i]) > s.ca.activity(s.learnts[j])
	})
	keep := len(s.learnts) / 2
	removed := s.learnts[keep:]
	s.learnts = s.learnts[:keep]
	// A live clause is watched exactly on lits[0] and lits[1], so only the
	// lists of the freed clauses' first two literals hold dead watchers.
	dirty := s.dirtyBuf[:0]
	for _, c := range removed {
		if s.locked(c) {
			s.learnts = append(s.learnts, c)
			continue
		}
		lits := s.ca.lits(c)
		dirty = append(dirty, lits[0].neg(), lits[1].neg())
		s.ca.free(c)
	}
	if len(dirty) == 0 {
		return
	}
	slices.Sort(dirty)
	for _, key := range slices.Compact(dirty) {
		ws := s.watches[key]
		kept := ws[:0]
		for _, w := range ws {
			if !s.ca.deleted(w.cref &^ binaryWatch) {
				kept = append(kept, w)
			}
		}
		s.watches[key] = kept
	}
	s.dirtyBuf = dirty
	s.collect()
}

// locked reports whether c is the reason of an assignment on the trail. A
// longer clause implies its lits[0]; a binary clause is implied through its
// watcher without being reordered, so either literal may be the implied one.
func (s *Solver) locked(c cref) bool {
	lits := s.ca.lits(c)
	return s.vars[lits[0].vix()].reason == c || len(lits) == 2 && s.vars[lits[1].vix()].reason == c
}

// collect compacts the arena once at least half of it is garbage (or when
// compactHook asks). It runs after reduceDB and Simplify, the two places
// that delete clauses.
func (s *Solver) collect() {
	if s.ca.wasted == 0 {
		return
	}
	if 2*s.ca.wasted >= len(s.ca.mem) || s.compactHook != nil && s.compactHook() {
		s.compact()
	}
}

// compact copies the live clauses into a fresh arena in list order (problem
// clauses, then learnts) and rewrites every cref the solver holds: both
// lists, the watchers and the reasons on the trail. Clause order, literal
// order and activities are unchanged, so the search is too. The new arena
// is allocated at exactly the live size and the old one is dropped at once.
func (s *Solver) compact() {
	to := arena{mem: make([]ilit, 0, len(s.ca.mem)-s.ca.wasted)}
	for i, c := range s.clauses {
		s.clauses[i] = s.ca.move(c, &to)
	}
	for i, c := range s.learnts {
		s.learnts[i] = s.ca.move(c, &to)
	}
	for _, ws := range s.watches {
		for j, w := range ws {
			ws[j].cref = s.ca.forward(w.cref&^binaryWatch) | w.cref&binaryWatch
		}
	}
	for _, il := range s.trail {
		if vd := &s.vars[il.vix()]; vd.reason != crefUndef {
			vd.reason = s.ca.forward(vd.reason)
		}
	}
	s.ca = to
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (int64(1)<<uint(k))-1 {
			return int64(1) << uint(k-1)
		}
		if i >= int64(1)<<uint(k-1) && i < (int64(1)<<uint(k))-1 {
			return luby(i - (int64(1) << uint(k-1)) + 1)
		}
	}
}

// Solve determines satisfiability under the given assumptions. A Sat result
// leaves the model readable via Value; Unsat means unsatisfiable under the
// assumptions; Unknown means a budget (MaxPropagations, Deadline, or the
// context of SolveCtx) was exhausted — StopCause then reports which.
func (s *Solver) Solve(assumptions ...Lit) Status {
	return s.SolveScoped(context.Background(), nil, assumptions...)
}

// SolveCtx is Solve under a context: cancellation is polled every
// pollInterval propagations and aborts the search with Unknown, leaving the
// context's error available via StopCause.
func (s *Solver) SolveCtx(ctx context.Context, assumptions ...Lit) Status {
	return s.SolveScoped(ctx, nil, assumptions...)
}

// SolveScoped is SolveCtx with a decision scope: the search branches only on
// the variables scope returns, and a scope assigned without conflict is a
// Sat answer even when variables outside it are still unassigned. A nil
// scope function, or a nil result, means every variable (SolveCtx). The scope
// lives for this call only.
//
// The scope is asked for at most once, at the solve's first decision: a
// solve settled by propagation, by a conflicting assumption or by a budget
// stop before deciding never calls scope, and pays nothing for it. The
// order heap is loaded at the same point, with the scope variables still
// unassigned after assumption propagation. Because the heap's order is
// total (activity, then the lower index), a decision does not depend on
// when the heap was loaded.
//
// A scoped Sat answer is sound when every clause mentioning a variable
// outside the scope is either a definition of that variable in terms of
// others (a Tseitin gate output, which evaluating the gate satisfies) or
// satisfied at decision level 0: then the scope assignment extends to a full
// model by evaluating the undecided gates, with undecided leaves at false.
// cnf.Unroller.ConeVars computes such a scope (the Tseitin cone of a query's
// assumption literals). Assumptions outside the scope are still applied.
//
// A solve keeps the trail of the assumption prefix it shares with the
// previous solve: it backjumps to the end of that prefix, not to level 0, so
// a query that extends the last one propagates only its new assumptions.
// The kept levels hold assumptions and their unit propagation, never a
// decision, so they are valid under any scope. AddClause, Simplify, a budget
// stop and a level-0 conflict all backjump to level 0, which leaves nothing
// to keep.
func (s *Solver) SolveScoped(ctx context.Context, scope func() []int, assumptions ...Lit) Status {
	if s.Counters != nil {
		defer s.Counters.observe(s)()
	}
	s.stopCause = nil
	if s.unsat {
		return Unsat
	}
	s.ctx = ctx
	s.polling = ctx.Done() != nil || !s.Deadline.IsZero() || s.MaxPropagations > 0
	s.nextPoll = s.Propagations // poll on the first search step
	s.propLimit = 0
	if s.MaxPropagations > 0 {
		s.propLimit = s.Propagations + s.MaxPropagations
	}
	defer func() { s.ctx = nil }()

	if scope != nil {
		// The heap holds the last solve's variables, not this scope's.
		s.scopeFn = scope
		s.order.stale = true
		defer s.endScope()
	}
	keep := 0
	for keep < len(assumptions) && keep < len(s.prevAssumps) && keep < s.decisionLevel() &&
		assumptions[keep] == s.prevAssumps[keep] {
		keep++
	}
	s.prevAssumps = append(s.prevAssumps[:0], assumptions...)
	s.backjump(keep)
	if keep > 0 {
		// Every solve returns with its trail fully propagated, so the kept
		// levels need no propagation, and a kept trail cannot hide a level-0
		// conflict: that would have set unsat.
		s.TrailReused += int64(len(s.trail) - s.trailLim[0])
	} else if s.propagate() != crefUndef {
		s.unsat = true
		return Unsat
	}

	restartNum := int64(0)
	maxLearnts := int64(len(s.clauses)/3 + 100)

	for {
		restartNum++
		status := s.search(assumptions, restartBase*luby(restartNum), &maxLearnts)
		if status != Unknown {
			return status
		}
		if s.stopCause != nil {
			s.backjump(0)
			return Unknown
		}
		s.Restarts++
	}
}

// endScope clears the in-flight solve's decision scope, and the scope marks
// if the solve got as far as setting them. The heap holds only scope
// variables, so it is left stale for the next solve to reload.
func (s *Solver) endScope() {
	for _, v := range s.scope {
		s.vars[v].inScope = false
	}
	s.scopeFn, s.scope = nil, nil
	s.order.stale = true
}

// loadOrder readies a stale heap for a decision. At a scoped solve's first
// decision it fetches the scope and marks it; then it reloads the heap with
// the unassigned scope variables (every unassigned variable when the scope
// is nil).
func (s *Solver) loadOrder() {
	if s.scopeFn != nil {
		s.scope, s.scopeFn = s.scopeFn(), nil
		for _, v := range s.scope {
			s.ensure(v)
			s.vars[v].inScope = true
		}
	}
	s.order.rebuild()
	s.HeapLoads += int64(len(s.order.heap))
}

// StopCause reports why the previous Solve returned Unknown: a context error,
// ErrDeadline, or ErrPropagationBudget. It is nil after a decided (Sat/Unsat)
// result.
func (s *Solver) StopCause() error { return s.stopCause }

// shouldStop polls the cancellation and budget sources. It is rate-limited by
// the propagation counter so the hot search loop pays one integer compare in
// the common case.
func (s *Solver) shouldStop() bool {
	if !s.polling || s.Propagations < s.nextPoll {
		return false
	}
	s.nextPoll = s.Propagations + pollInterval
	if s.propLimit > 0 && s.propLimit < s.nextPoll {
		// Land the next poll exactly on the propagation budget so small
		// deterministic budgets are honoured, not rounded up to pollInterval.
		s.nextPoll = s.propLimit
	}
	if err := s.ctx.Err(); err != nil {
		s.stopCause = err
		return true
	}
	if s.propLimit > 0 && s.Propagations >= s.propLimit {
		s.stopCause = ErrPropagationBudget
		return true
	}
	if !s.Deadline.IsZero() && time.Now().After(s.Deadline) {
		s.stopCause = ErrDeadline
		return true
	}
	return false
}

// search runs CDCL until a verdict, a restart budget exhaustion (Unknown), or
// assumption failure.
func (s *Solver) search(assumptions []Lit, budget int64, maxLearnts *int64) Status {
	conflicts := int64(0)
	for {
		if s.shouldStop() {
			s.backjump(0)
			return Unknown
		}
		conflict := s.propagate()
		if conflict != crefUndef {
			s.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.unsat = true
				return Unsat
			}
			learnt, bj := s.analyze(conflict)
			s.backjump(bj)
			if len(learnt) == 1 {
				s.enqueue(learnt[0], crefUndef)
			} else {
				c := s.ca.alloc(learnt, true)
				s.ca.setActivity(c, s.claInc)
				s.learnts = append(s.learnts, c)
				s.Learned++
				s.watch(c)
				s.enqueue(learnt[0], c)
			}
			s.varInc /= varDecay
			s.claInc /= claDecay
			continue
		}

		if conflicts >= budget {
			s.backjump(0)
			return Unknown
		}
		if int64(len(s.learnts)) > *maxLearnts+int64(len(s.trail)) {
			s.reduceDB()
			*maxLearnts += *maxLearnts / 10
		}

		// Apply assumptions as pseudo-decisions.
		if s.decisionLevel() < len(assumptions) {
			a := toInternal(assumptions[s.decisionLevel()])
			s.ensure(a.vix())
			switch s.value(a) {
			case lTrue:
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				return Unsat // conflicting assumptions
			default:
				s.trailLim = append(s.trailLim, len(s.trail))
				s.enqueue(a, crefUndef)
				continue
			}
		}

		// Full-assignment check by trail length before consulting the heap:
		// at a Sat verdict the heap is full of stale (already assigned)
		// entries, and popping them all just to find it empty costs
		// O(V log V) per solve.
		if len(s.trail) == len(s.vars)-1 {
			return Sat
		}
		next := s.pickBranch()
		if next == 0 {
			return Sat // every scope variable assigned without conflict
		}
		if s.decideHook != nil && s.decideHook(next.vix()) {
			s.order.push(next.vix()) // popped but never assigned
			s.backjump(0)
			return Unknown
		}
		s.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(next, crefUndef)
	}
}

// Value returns the model value of variable v after a Sat result. A
// variable left unassigned — outside the decision scope of a SolveScoped
// call — reads false, the value the scope soundness rule completes an
// undecided leaf with (an undecided gate output is not completed: read it
// only inside the scope).
func (s *Solver) Value(v int) bool {
	if v <= 0 || v >= len(s.vars) {
		return false
	}
	return s.vals[2*v] == lTrue
}

// ValueLit returns the model value of a literal after a Sat result. An
// unassigned variable reads false (see Value), so its negative literal reads
// true.
func (s *Solver) ValueLit(l Lit) bool {
	v := s.Value(l.Var())
	if l < 0 {
		return !v
	}
	return v
}

// NumClauses returns the number of problem clauses.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// String summarizes solver statistics.
func (s *Solver) String() string {
	return fmt.Sprintf("sat.Solver{vars=%d clauses=%d learnts=%d conflicts=%d decisions=%d props=%d restarts=%d}",
		s.NumVars(), len(s.clauses), len(s.learnts), s.Conflicts, s.Decisions, s.Propagations, s.Restarts)
}

// ---------------------------------------------------------------------------
// Activity-ordered heap for decision variable selection
// ---------------------------------------------------------------------------

type activityHeap struct {
	s    *Solver
	heap []int
	// indices[v] is v's position in heap, or -1 when absent. A flat slice
	// instead of a map: pickBranch pops and re-pushes variables on every
	// decision/backjump, and map hashing dominated that path in profiles.
	indices []int
	// stale marks a heap that no longer holds every unassigned variable of
	// the solve's scope: the next decision reloads it (Solver.loadOrder),
	// and until then push and update are no-ops.
	stale bool
}

func newActivityHeap(s *Solver) *activityHeap {
	return &activityHeap{s: s}
}

// less orders by activity, ties by the lower variable index. The order is
// total, so the top is the same variable whatever the heap's history.
func (h *activityHeap) less(i, j int) bool {
	vi, vj := h.heap[i], h.heap[j]
	ai, aj := h.s.activity[vi], h.s.activity[vj]
	return ai > aj || ai == aj && vi < vj
}

func (h *activityHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.indices[h.heap[i]] = i
	h.indices[h.heap[j]] = j
}

func (h *activityHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *activityHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.less(l, best) {
			best = l
		}
		if r < n && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *activityHeap) push(v int) {
	if h.stale {
		return
	}
	for len(h.indices) <= v {
		h.indices = append(h.indices, -1)
	}
	if h.indices[v] >= 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.indices[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

func (h *activityHeap) pop() (int, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.indices[v] = -1
	if last > 0 {
		h.down(0)
	}
	return v, true
}

// rebuild reloads the heap with the unassigned variables of the solve's
// scope (every variable when the scope is nil) and restores heap order
// bottom-up. Floyd's heapify is O(scope) against O(scope log scope) for
// pushing variables back one at a time, and reloading also drops entries
// for assigned variables so the solve's pops never sift dead wood.
func (h *activityHeap) rebuild() {
	for _, v := range h.heap {
		h.indices[v] = -1
	}
	h.heap = h.heap[:0]
	for len(h.indices) < len(h.s.vars) {
		h.indices = append(h.indices, -1)
	}
	vals, scope := h.s.vals, h.s.scope
	if scope == nil {
		for v := 1; v < len(h.s.vars); v++ {
			if vals[2*v] == lUndef {
				h.indices[v] = len(h.heap)
				h.heap = append(h.heap, v)
			}
		}
	} else {
		for _, v := range scope {
			if vals[2*v] == lUndef && h.indices[v] < 0 {
				h.indices[v] = len(h.heap)
				h.heap = append(h.heap, v)
			}
		}
	}
	h.stale = false
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *activityHeap) update(v int) {
	if !h.stale && len(h.indices) > v && h.indices[v] >= 0 {
		h.up(h.indices[v])
		h.down(h.indices[v])
	}
}
