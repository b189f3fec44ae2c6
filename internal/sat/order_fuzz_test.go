package sat

import (
	"context"
	"testing"
)

// FuzzDecisionOrder is the net under the lazy decision order: a solve loads
// its order heap, and asks for its scope, only at its first decision, yet
// every decision must be the unassigned scope variable of maximal
// (activity, −index), computed here by brute force over the scope through
// the solver's decideHook. One solver runs a random CNF over a few base
// variables, plus Tseitin gates over them and spare variables, through a
// sequence of solves whose assumption lists, over base variables and gate
// outputs, share a random-length prefix with the previous one's and whose
// scopes change from solve to solve: nil,
// a function returning nil, the base variables with a random subset of the
// gates, or every variable. Some inputs carry 64 or more gates, so a forced
// restart undoes more than 64 literals and reloads the heap. Between solves
// the sequence adds clauses, simplifies, allocates variables, sets
// propagation budgets and primes an activity rescale; inside a solve the
// hook forces restarts. Every
// decided verdict must equal a fresh solver's, every Sat model must satisfy
// the clauses it decided, and the scope function must run at most once, and
// only in a solve that reaches a decision. The seed corpus runs under plain
// go test; the fuzz engine with
// go test -run '^$' -fuzz FuzzDecisionOrder ./internal/sat.
func FuzzDecisionOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 2, 0, 9, 1, 0, 3, 2, 1, 1, 0, 4, 2, 2, 6, 3, 1, 0, 2, 5, 7, 1, 3, 2, 0, 1, 2})
	x := uint64(0x853c49e6748fea9b)
	for i := 0; i < 40; i++ {
		seed := make([]byte, 200+i*40)
		for j := range seed {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			seed[j] = byte(x)
		}
		if i%4 == 0 {
			seed[1] = 0 // 64+ gates: a forced restart reloads the heap
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &trailOps{data: data}
		nv := 3 + r.next()%16
		ng := r.next() % 12
		if ng == 0 {
			ng = 64 + r.next()%16
		}
		lit := func() Lit {
			l := Lit(1 + r.next()%nv)
			if r.next()&1 == 1 {
				return -l
			}
			return l
		}
		clause := func() []Lit { // mostly ternary: satisfiable, with conflicts
			n := 3 - r.next()%16/12 - r.next()%16/15
			c := make([]Lit, n)
			for i := range c {
				c[i] = lit()
			}
			return c
		}
		s := New()
		for s.NumVars() < nv {
			s.NewVar()
		}
		var cls [][]Lit
		var defines []int // defines[i]: the gate output cls[i] defines, or 0
		add := func(c ...Lit) {
			cls = append(cls, c)
			defines = append(defines, 0)
			s.AddClause(c...)
		}
		for i := nv + r.next()%(3*nv); i > 0; i-- {
			add(clause()...)
		}
		// Gates read base literals only, so any subset of gate outputs may
		// sit outside a scope: the clauses that mention an outside output
		// all define it, and once the base variables are decided they are
		// fully assigned, so propagation checks them even when an assumption
		// pins the output.
		gates := make([]int, ng)
		for i := range gates {
			o := Lit(s.NewVar())
			gates[i] = int(o)
			a, b := lit(), lit()
			n := len(cls)
			if r.next()&1 == 0 { // o = a AND b
				add(-a, -b, o)
				add(a, -o)
				add(b, -o)
			} else { // o = a XOR b
				add(-a, -b, -o)
				add(a, b, -o)
				add(-a, b, o)
				add(a, -b, o)
			}
			for j := n; j < len(cls); j++ {
				defines[j] = int(o)
			}
		}
		for i := r.next() % 4; i > 0; i-- {
			s.NewVar() // spare: no clause mentions it
		}

		var scope []int // the in-flight solve's scope, nil for every variable
		var member []bool
		in := func(v int) bool { return scope == nil || v < len(member) && member[v] }
		// The hook forces up to restarts restarts, at decision restartAt of
		// the solve and later, when the trail is long.
		restarts, restartAt, decided, asked := 0, 0, 0, 0
		s.decideHook = func(v int) bool {
			decided++
			if !in(v) || s.vals[2*v] != lUndef {
				t.Fatalf("decision %d is not an unassigned scope variable (scope %v)", v, scope)
			}
			for u := 1; u <= s.NumVars(); u++ {
				if in(u) && s.vals[2*u] == lUndef && (s.activity[u] > s.activity[v] || s.activity[u] == s.activity[v] && u < v) {
					t.Fatalf("decided %d (activity %g) over %d (activity %g)", v, s.activity[v], u, s.activity[u])
				}
			}
			// The heap holds no variable outside the scope: a leaked one
			// would be decided once its activity rose above the scope's.
			for _, u := range s.order.heap {
				if !in(u) {
					t.Fatalf("order heap holds %d, outside the scope %v", u, scope)
				}
			}
			if restarts > 0 && decided > restartAt {
				restarts--
				return true
			}
			return false
		}

		var prev []Lit
		ctx := context.Background()
		ops := 4 + r.next()%24
		for op := 0; op < ops; op++ {
			switch r.next() % 10 {
			case 0:
				add(clause()...)
				continue
			case 1:
				s.Simplify()
				continue
			case 2:
				s.NewVar() // fresh and unmentioned, as AddFrame allocates
				continue
			case 3:
				s.MaxPropagations = int64(1 + r.next()%16)
			case 4:
				// The next conflict's bump rescales every activity, which
				// leaves the heap stale in the middle of the search.
				s.varInc = 1e100
			}
			assumps := append([]Lit(nil), prev[:r.next()%(len(prev)+1)]...)
			for k := r.next() % 4; k > 0 && len(assumps) < 10; k-- {
				l := lit()
				if r.next()%3 == 0 { // a gate output, in the scope or not
					g := Lit(gates[r.next()%ng])
					if l < 0 {
						g = -g
					}
					l = g
				}
				assumps = append(assumps, l)
			}
			prev = assumps
			scoped := true
			var want []int // what the scope function returns
			switch r.next() % 4 {
			case 0: // no scope function
				scoped = false
			case 1: // a scope function answering nil: every variable
			case 2: // the base variables, rotated, and a random subset of gates
				rot := r.next() % nv
				for i := 0; i < nv; i++ {
					want = append(want, 1+(i+rot)%nv)
				}
				mask := 0
				for i, g := range gates {
					if i%8 == 0 {
						mask = r.next()
					}
					if mask>>(i%8)&1 == 1 {
						want = append(want, g)
					}
				}
			case 3: // every variable, gates and spares included
				for v := s.NumVars(); v >= 1; v-- {
					want = append(want, v)
				}
			}
			asked, decided, restarts, restartAt = 0, 0, r.next()%3, r.next()%4
			var fn func() []int
			if scoped {
				fn = func() []int {
					asked++
					scope = want
					member = make([]bool, s.NumVars()+1)
					for _, v := range scope {
						member[v] = true
					}
					return scope
				}
			}
			scope = nil
			got := s.SolveScoped(ctx, fn, assumps...)
			s.MaxPropagations = 0
			if asked > 1 {
				t.Fatalf("op %d: scope asked for %d times", op, asked)
			}
			if fn != nil && decided > 0 && asked == 0 {
				t.Fatalf("op %d: %d decisions without asking for the scope", op, decided)
			}
			if asked == 1 && decided == 0 && got != Sat {
				t.Fatalf("op %d: scope asked for by a solve that never decided (%v)", op, got)
			}
			if got == Unknown {
				if s.StopCause() == nil {
					t.Fatalf("op %d: Unknown without a stop cause", op)
				}
				continue
			}
			fresh := New()
			for _, c := range cls {
				fresh.AddClause(c...)
			}
			if w := fresh.Solve(assumps...); got != w {
				t.Fatalf("op %d assumps %v scope %v: %v, fresh solver %v", op, assumps, scope, got, w)
			}
			if got != Sat {
				continue
			}
			for _, l := range assumps {
				if !s.ValueLit(l) {
					t.Fatalf("op %d: assumption %d false in the model", op, l)
				}
			}
			// Sat means every scope variable is assigned: one missing from
			// the heap would be left undecided.
			for v := 1; v <= s.NumVars(); v++ {
				if in(v) && s.vals[2*v] == lUndef {
					t.Fatalf("op %d: scope variable %d unassigned at Sat (scope %v)", op, v, scope)
				}
			}
			for i, c := range cls {
				if o := defines[i]; o != 0 && !in(o) {
					continue // a gate outside the scope is left undecided
				}
				ok := false
				for _, l := range c {
					ok = ok || s.ValueLit(l)
				}
				if !ok {
					t.Fatalf("op %d: clause %v violated by the model (scope %v)", op, c, scope)
				}
			}
		}
	})
}

// TestScopeAskedOnlyWhenDeciding: a scoped solve that propagation settles
// never asks for its scope and loads nothing into the order heap; one that
// decides asks exactly once and loads only the scope's unassigned
// variables.
func TestScopeAskedOnlyWhenDeciding(t *testing.T) {
	s := New()
	s.AddClause(-1, 2) // 1 -> 2
	s.AddClause(-2, 3) // 2 -> 3
	s.AddClause(4, 5)
	asked := 0
	scope := func() []int {
		asked++
		return []int{1, 2, 3, 4, 5}
	}
	if st := s.SolveScoped(context.Background(), scope, 1, -3); st != Unsat {
		t.Fatalf("refuted query: %v", st)
	}
	if asked != 0 || s.HeapLoads != 0 {
		t.Fatalf("propagation-settled solve: scope asked %d times, %d heap loads", asked, s.HeapLoads)
	}
	if st := s.SolveScoped(context.Background(), scope, 1); st != Sat {
		t.Fatalf("deciding query: %v", st)
	}
	// 1, 2 and 3 are assigned by the assumption: 4 and 5 are loaded.
	if asked != 1 || s.HeapLoads != 2 {
		t.Fatalf("deciding solve: scope asked %d times, %d heap loads, want 1 and 2", asked, s.HeapLoads)
	}
	if !s.Value(4) && !s.Value(5) {
		t.Fatal("clause (4 5) violated")
	}
}
