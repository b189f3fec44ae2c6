package sat

import (
	"context"
	"testing"
)

// trailOps decodes fuzz bytes, handing out zeros once the input is
// exhausted, so every input is a well-formed operation sequence.
type trailOps struct {
	data []byte
	pos  int
}

func (r *trailOps) next() int {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return int(b)
}

// FuzzTrailReuse is the net under trail reuse between solves: one solver
// runs a random CNF through a random sequence of solves whose assumption
// lists share a random-length prefix with the previous solve's, with
// AddClause, Simplify, propagation-budget stops and scope changes mixed in
// between. Every decided verdict must equal the verdict of a fresh solver
// built from the same clauses, which has no trail to keep, and every Sat
// model must satisfy every clause and every assumption. A scope always
// covers every variable a clause or an assumption mentions (the variables
// outside it are spare), so a scoped model is checkable as read. The seed
// corpus runs under plain go test; the fuzz engine with
// go test -run '^$' -fuzz FuzzTrailReuse ./internal/sat.
func FuzzTrailReuse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 6, 2, 1, 0, 3, 1, 0, 5, 1, 2, 0, 0, 1, 0, 0, 2, 3, 0, 1})
	x := uint64(0x2545f4914f6cdd1d)
	for i := 0; i < 30; i++ {
		seed := make([]byte, 32+i*6)
		for j := range seed {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			seed[j] = byte(x)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &trailOps{data: data}
		nv := 3 + r.next()%10
		spare := r.next() % 4 // variables no clause or assumption mentions
		lit := func() Lit {
			l := Lit(1 + r.next()%nv)
			if r.next()&1 == 1 {
				return -l
			}
			return l
		}
		clause := func() []Lit {
			c := make([]Lit, 1+r.next()%3)
			for i := range c {
				c[i] = lit()
			}
			return c
		}
		s := New()
		for s.NumVars() < nv+spare {
			s.NewVar()
		}
		var cls [][]Lit
		for i := 2 + r.next()%(3*nv); i > 0; i-- {
			c := clause()
			cls = append(cls, c)
			s.AddClause(c...)
		}

		var prev []Lit
		ctx := context.Background()
		ops := 4 + r.next()%24
		for op := 0; op < ops; op++ {
			switch r.next() % 8 {
			case 0:
				c := clause()
				cls = append(cls, c)
				s.AddClause(c...)
				continue
			case 1:
				s.Simplify()
				continue
			case 2:
				s.MaxPropagations = int64(1 + r.next()%16)
			}
			assumps := append([]Lit(nil), prev[:r.next()%(len(prev)+1)]...)
			for k := r.next() % 4; k > 0 && len(assumps) < 10; k-- {
				assumps = append(assumps, lit())
			}
			prev = assumps
			var scope []int
			switch r.next() % 3 {
			case 1: // the mentioned variables, in a rotated order
				rot := r.next() % nv
				for i := 0; i < nv; i++ {
					scope = append(scope, 1+(i+rot)%nv)
				}
			case 2: // every variable, spares included
				for v := s.NumVars(); v >= 1; v-- {
					scope = append(scope, v)
				}
			}
			var scopeFn func() []int
			if scope != nil {
				scopeFn = func() []int { return scope }
			}
			got := s.SolveScoped(ctx, scopeFn, assumps...)
			s.MaxPropagations = 0
			if got == Unknown {
				if s.StopCause() == nil {
					t.Fatalf("op %d: Unknown without a stop cause", op)
				}
				continue
			}
			if s.StopCause() != nil {
				t.Fatalf("op %d: %v with stop cause %v", op, got, s.StopCause())
			}
			fresh := New()
			for _, c := range cls {
				fresh.AddClause(c...)
			}
			if want := fresh.Solve(assumps...); got != want {
				t.Fatalf("op %d assumps %v scope %v: %v, fresh solver %v", op, assumps, scope, got, want)
			}
			if got != Sat {
				continue
			}
			for _, l := range assumps {
				if !s.ValueLit(l) {
					t.Fatalf("op %d: assumption %d false in the model", op, l)
				}
			}
			for _, c := range cls {
				ok := false
				for _, l := range c {
					ok = ok || s.ValueLit(l)
				}
				if !ok {
					t.Fatalf("op %d: clause %v violated by the model", op, c)
				}
			}
		}
	})
}

// TestTrailReusedCounts: a solve whose assumptions extend the previous
// solve's keeps the shared prefix's trail, and the counter says how much.
// Adding a clause in between drops it.
func TestTrailReusedCounts(t *testing.T) {
	s := New()
	s.AddClause(-1, 2) // 1 -> 2
	s.AddClause(-2, 3) // 2 -> 3
	s.AddClause(-4, 5)
	if st := s.Solve(1); st != Sat {
		t.Fatal(st)
	}
	if s.TrailReused != 0 {
		t.Fatalf("first solve reused %d literals", s.TrailReused)
	}
	if st := s.Solve(1, 4); st != Sat || !s.Value(3) || !s.Value(5) {
		t.Fatalf("extended solve: %v", st)
	}
	if s.TrailReused != 3 { // 1, 2 and 3 at level 1
		t.Fatalf("TrailReused = %d, want 3", s.TrailReused)
	}
	if st := s.Solve(1, -4); st != Sat || s.Value(4) {
		t.Fatalf("diverging solve: %v", st)
	}
	if s.TrailReused != 6 {
		t.Fatalf("TrailReused = %d, want 6", s.TrailReused)
	}
	s.AddClause(6, 7)
	if st := s.Solve(1, -4); st != Sat || s.TrailReused != 6 {
		t.Fatalf("solve after AddClause: %v, TrailReused = %d, want 6", st, s.TrailReused)
	}
	// A shared prefix that ends in Unsat keeps the levels up to the failed
	// assumption.
	if st := s.Solve(1, -4, -3); st != Unsat {
		t.Fatalf("conflicting assumption: %v", st)
	}
	if st := s.Solve(1, -4, 7); st != Sat || !s.Value(7) {
		t.Fatalf("after failed assumption: %v", st)
	}
}
