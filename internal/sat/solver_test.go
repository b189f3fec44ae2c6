package sat

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

func TestTrivial(t *testing.T) {
	s := New()
	if st := s.Solve(); st != Sat {
		t.Fatalf("empty formula: %v", st)
	}
	s.AddClause(1)
	if st := s.Solve(); st != Sat {
		t.Fatalf("unit: %v", st)
	}
	if !s.Value(1) {
		t.Error("x1 should be true")
	}
	s.AddClause(-1)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("x & ~x: %v", st)
	}
	// Once unsat, stays unsat.
	if st := s.Solve(); st != Unsat {
		t.Fatal("unsat is sticky")
	}
	if ok, _ := s.AddClause(2); ok {
		t.Error("AddClause after unsat should return false")
	}
}

func TestSimpleImplicationChain(t *testing.T) {
	s := New()
	// x1 -> x2 -> x3 -> x4, x1 forced.
	s.AddClause(-1, 2)
	s.AddClause(-2, 3)
	s.AddClause(-3, 4)
	s.AddClause(1)
	if st := s.Solve(); st != Sat {
		t.Fatal(st)
	}
	for v := 1; v <= 4; v++ {
		if !s.Value(v) {
			t.Errorf("x%d should be true", v)
		}
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := New()
	s.AddClause(1, -1)   // tautology: ignored
	s.AddClause(2, 2, 2) // duplicates collapse to unit
	if st := s.Solve(); st != Sat || !s.Value(2) {
		t.Fatalf("status %v, x2=%v", st, s.Value(2))
	}
}

func TestPigeonhole3x2(t *testing.T) {
	// 3 pigeons, 2 holes: unsat. Var p*2+h+1... small manual encoding.
	s := New()
	v := func(p, h int) Lit { return Lit(p*2 + h + 1) }
	for p := 0; p < 3; p++ {
		s.AddClause(v(p, 0), v(p, 1))
	}
	for h := 0; h < 2; h++ {
		for p1 := 0; p1 < 3; p1++ {
			for p2 := p1 + 1; p2 < 3; p2++ {
				s.AddClause(-v(p1, h), -v(p2, h))
			}
		}
	}
	if st := s.Solve(); st != Unsat {
		t.Fatalf("PHP(3,2): %v", st)
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	s.AddClause(-1, 2)
	s.AddClause(-2, -3)
	if st := s.Solve(1, 3); st != Unsat {
		t.Fatalf("assume x1,x3: %v", st)
	}
	if st := s.Solve(1); st != Sat {
		t.Fatalf("assume x1: %v", st)
	}
	if !s.Value(2) || s.Value(3) {
		t.Error("model should satisfy x2, ~x3")
	}
	// Solver remains usable after assumption failures.
	if st := s.Solve(); st != Sat {
		t.Fatalf("no assumptions: %v", st)
	}
	if st := s.Solve(3); st != Sat {
		t.Fatalf("assume x3: %v", st)
	}
	if s.Value(1) {
		t.Error("x1 must be false when x3 assumed")
	}
}

func TestConflictingAssumptions(t *testing.T) {
	s := New()
	s.AddClause(1, 2)
	if st := s.Solve(-1, 1); st != Unsat {
		t.Fatalf("conflicting assumptions: %v", st)
	}
}

func TestIncremental(t *testing.T) {
	s := New()
	s.AddClause(1, 2, 3)
	if s.Solve() != Sat {
		t.Fatal("base sat")
	}
	s.AddClause(-1)
	s.AddClause(-2)
	if s.Solve() != Sat {
		t.Fatal("still sat")
	}
	if !s.Value(3) {
		t.Error("x3 forced")
	}
	s.AddClause(-3)
	if s.Solve() != Unsat {
		t.Fatal("now unsat")
	}
}

func TestXorChainUnsat(t *testing.T) {
	// x1 xor x2 = 1, x2 xor x3 = 1, x1 xor x3 = 1 is unsat (odd cycle).
	s := New()
	addXor := func(a, b Lit) {
		s.AddClause(a, b)
		s.AddClause(-a, -b)
	}
	addXor(1, 2)
	addXor(2, 3)
	addXor(1, 3)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("xor cycle: %v", st)
	}
}

// bruteForce checks satisfiability of cnf over nv variables by enumeration.
func bruteForce(nv int, cnf [][]Lit) bool {
	for m := 0; m < 1<<uint(nv); m++ {
		ok := true
		for _, cl := range cnf {
			sat := false
			for _, l := range cl {
				v := (m>>(uint(l.Var())-1))&1 == 1
				if (l > 0) == v {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandomCNFAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 400; iter++ {
		nv := 3 + rng.Intn(8)    // 3..10 vars
		nc := 2 + rng.Intn(5*nv) // clause count
		k := 1 + rng.Intn(3)     // clause width 1..3
		var cnf [][]Lit
		for i := 0; i < nc; i++ {
			width := 1 + rng.Intn(k)
			cl := make([]Lit, 0, width)
			for j := 0; j < width; j++ {
				v := 1 + rng.Intn(nv)
				if rng.Intn(2) == 0 {
					cl = append(cl, Lit(v))
				} else {
					cl = append(cl, Lit(-v))
				}
			}
			cnf = append(cnf, cl)
		}
		s := New()
		live := true
		for _, cl := range cnf {
			if ok, err := s.AddClause(cl...); err != nil {
				t.Fatal(err)
			} else if !ok {
				live = false
				break
			}
		}
		var got Status
		if !live {
			got = Unsat
		} else {
			got = s.Solve()
		}
		want := bruteForce(nv, cnf)
		if (got == Sat) != want {
			t.Fatalf("iter %d: solver=%v bruteforce=%v cnf=%v", iter, got, want, cnf)
		}
		if got == Sat {
			// Verify the model actually satisfies the formula.
			for _, cl := range cnf {
				ok := false
				for _, l := range cl {
					if s.ValueLit(l) {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("iter %d: model does not satisfy clause %v", iter, cl)
				}
			}
		}
	}
}

func TestRandomWithAssumptions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 150; iter++ {
		nv := 4 + rng.Intn(5)
		var cnf [][]Lit
		for i := 0; i < 3*nv; i++ {
			cl := make([]Lit, 0, 3)
			for j := 0; j < 3; j++ {
				v := 1 + rng.Intn(nv)
				if rng.Intn(2) == 0 {
					v = -v
				}
				cl = append(cl, Lit(v))
			}
			cnf = append(cnf, cl)
		}
		// Random assumptions over distinct vars.
		var assumps []Lit
		perm := rng.Perm(nv)
		na := rng.Intn(3)
		for i := 0; i < na && i < len(perm); i++ {
			v := Lit(perm[i] + 1)
			if rng.Intn(2) == 0 {
				v = -v
			}
			assumps = append(assumps, v)
		}
		s := New()
		live := true
		for _, cl := range cnf {
			if ok, err := s.AddClause(cl...); err != nil {
				t.Fatal(err)
			} else if !ok {
				live = false
				break
			}
		}
		// Brute force with assumptions appended as unit clauses.
		full := append([][]Lit{}, cnf...)
		for _, a := range assumps {
			full = append(full, []Lit{a})
		}
		want := bruteForce(nv, full)
		var got Status
		if !live {
			got = Unsat
		} else {
			got = s.Solve(assumps...)
		}
		if (got == Sat) != want {
			t.Fatalf("iter %d: solver=%v brute=%v cnf=%v assumps=%v", iter, got, want, cnf, assumps)
		}
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

// lubyRef is an independent reference for the Luby sequence: the k-th term is
// 2^(i-1) when k = 2^i - 1, else the sequence restarts at k - 2^(i-1) + 1 for
// the largest i with 2^(i-1) <= k < 2^i - 1. Computed iteratively, unlike the
// recursive production version.
func lubyRef(k int64) int64 {
	for {
		// Find size = 2^i - 1, the smallest full prefix covering k.
		size := int64(1)
		for size < k {
			size = 2*size + 1
		}
		if k == size {
			return (size + 1) / 2
		}
		k -= (size - 1) / 2
	}
}

func TestLubySequenceAgainstReference(t *testing.T) {
	// The canonical prefix, then a long stretch against the reference.
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
	for i := int64(1); i <= 4096; i++ {
		if got, ref := luby(i), lubyRef(i); got != ref {
			t.Fatalf("luby(%d) = %d, reference %d", i, got, ref)
		}
	}
	// Structural properties: every term is a power of two, and term 2^k - 1
	// is exactly 2^(k-1).
	for k := uint(1); k <= 12; k++ {
		i := int64(1)<<k - 1
		if got := luby(i); got != int64(1)<<(k-1) {
			t.Fatalf("luby(2^%d-1) = %d, want %d", k, got, int64(1)<<(k-1))
		}
	}
}

// TestSolverDeterminism: two solvers fed the identical clause sequence take
// the identical search, statistic for statistic. Counter-for-counter
// repeatability of a -j 1 mining run rests on it.
func TestSolverDeterminism(t *testing.T) {
	run := func() (Status, int64, int64, int64, int64) {
		s := New()
		php(s, 6, 5)
		st := s.Solve()
		return st, s.Conflicts, s.Decisions, s.Propagations, s.Restarts
	}
	st1, c1, d1, p1, r1 := run()
	st2, c2, d2, p2, r2 := run()
	if st1 != Unsat {
		t.Fatalf("pigeonhole(6,5) = %v, want UNSAT", st1)
	}
	if st1 != st2 || c1 != c2 || d1 != d2 || p1 != p2 || r1 != r2 {
		t.Fatalf("identical inputs diverged: (%v %d %d %d %d) vs (%v %d %d %d %d)",
			st1, c1, d1, p1, r1, st2, c2, d2, p2, r2)
	}
}

// TestSimplifyRetiresSatisfiedClauses checks the activation-literal lifecycle:
// clauses guarded by act are retired by the unit ¬act + Simplify, and the
// solver stays correct afterwards.
func TestSimplifyRetiresSatisfiedClauses(t *testing.T) {
	s := New()
	const act = 5
	// (x1 | x2 | ¬act) & (¬x1 | x3 | ¬act) with act forced on, plus a free
	// clause (x4).
	s.AddClause(1, 2, -act)
	s.AddClause(-1, 3, -act)
	s.AddClause(4)
	if st := s.Solve(Lit(act)); st != Sat {
		t.Fatalf("under act: %v", st)
	}
	before := s.NumClauses()
	// Retire: act is now false forever; both guarded clauses are satisfied.
	s.AddClause(Lit(-act))
	s.Simplify()
	if got := s.NumClauses(); got >= before {
		t.Fatalf("Simplify retired nothing: %d -> %d", before, got)
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("after retirement: %v", st)
	}
	if !s.Value(4) {
		t.Fatal("free clause lost in retirement")
	}
	// Solving under the retired activator is now vacuously Unsat.
	if st := s.Solve(Lit(act)); st != Unsat {
		t.Fatalf("assuming retired act: %v", st)
	}
}

func TestStatsAndString(t *testing.T) {
	s := New()
	s.AddClause(1, 2)
	s.AddClause(-1, 2)
	s.AddClause(1, -2)
	s.Solve()
	if s.NumVars() != 2 || s.NumClauses() != 3 {
		t.Errorf("vars=%d clauses=%d", s.NumVars(), s.NumClauses())
	}
	if s.String() == "" {
		t.Error("empty stats string")
	}
}

func TestValueLitBounds(t *testing.T) {
	s := New()
	if s.Value(0) || s.Value(99) {
		t.Error("out-of-range Value must be false")
	}
}

// php builds a pigeonhole instance PHP(p, h) — unsat and exponentially hard
// for CDCL when p = h+1, which makes it a good budget-test workload.
func php(s *Solver, pigeons, holes int) {
	v := func(p, h int) Lit { return Lit(p*holes + h + 1) }
	for p := 0; p < pigeons; p++ {
		var cl []Lit
		for h := 0; h < holes; h++ {
			cl = append(cl, v(p, h))
		}
		s.AddClause(cl...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(-v(p1, h), -v(p2, h))
			}
		}
	}
}

func TestAddClauseZeroLiteral(t *testing.T) {
	s := New()
	if _, err := s.AddClause(1, 0, 2); !errors.Is(err, ErrZeroLit) {
		t.Fatalf("want ErrZeroLit, got %v", err)
	}
	// The rejected clause must not have perturbed the solver.
	s.AddClause(1)
	if st := s.Solve(); st != Sat || !s.Value(1) {
		t.Fatalf("solver unusable after rejected clause: %v", st)
	}
}

func TestPropagationBudgetUnknown(t *testing.T) {
	s := New()
	php(s, 9, 8)
	s.MaxPropagations = 500
	st := s.Solve()
	if st != Unknown {
		t.Fatalf("want Unknown under 500-propagation budget, got %v (%s)", st, s)
	}
	if !errors.Is(s.StopCause(), ErrPropagationBudget) {
		t.Fatalf("StopCause = %v, want ErrPropagationBudget", s.StopCause())
	}
	// Lifting the budget on the same solver finds the refutation.
	s.MaxPropagations = 0
	if st := s.Solve(); st != Unsat {
		t.Fatalf("PHP(9,8) without budget: %v", st)
	}
	if s.StopCause() != nil {
		t.Fatalf("StopCause after decided result = %v, want nil", s.StopCause())
	}
}

// TestStopCauseClearedByLevelZeroUnsat: a solve that answers Unsat because
// the formula is already refuted at level 0 is a decided result, so it must
// clear the previous solve's budget stop.
func TestStopCauseClearedByLevelZeroUnsat(t *testing.T) {
	s := New()
	php(s, 9, 8)
	s.MaxPropagations = 500
	if st := s.Solve(); st != Unknown {
		t.Fatalf("want Unknown under 500-propagation budget, got %v", st)
	}
	s.MaxPropagations = 0
	s.AddClause(1)
	s.AddClause(-1)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("contradictory units: %v, want Unsat", st)
	}
	if err := s.StopCause(); err != nil {
		t.Fatalf("StopCause after level-0 Unsat = %v, want nil", err)
	}
}

func TestDeadlineUnknown(t *testing.T) {
	s := New()
	php(s, 12, 11)
	s.Deadline = time.Now().Add(5 * time.Millisecond)
	start := time.Now()
	st := s.Solve()
	if st != Unknown {
		t.Fatalf("want Unknown under 5ms deadline, got %v (%s)", st, s)
	}
	if !errors.Is(s.StopCause(), ErrDeadline) {
		t.Fatalf("StopCause = %v, want ErrDeadline", s.StopCause())
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("deadline overrun: solve took %v", el)
	}
}

func TestContextCancelStopsSearch(t *testing.T) {
	s := New()
	php(s, 12, 11)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Status, 1)
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	go func() { done <- s.SolveCtx(ctx) }()
	select {
	case st := <-done:
		if st != Unknown {
			t.Fatalf("cancelled solve returned %v, want Unknown", st)
		}
		if !errors.Is(s.StopCause(), context.Canceled) {
			t.Fatalf("StopCause = %v, want context.Canceled", s.StopCause())
		}
		// The acceptance bound is 100ms from cancellation to return; allow
		// slack for CI scheduling noise on top of the 10ms pre-cancel sleep.
		if el := time.Since(start); el > time.Second {
			t.Fatalf("cancellation latency too high: %v", el)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled solve hung")
	}
}
