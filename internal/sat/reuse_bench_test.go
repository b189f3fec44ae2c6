package sat

import (
	"context"
	"testing"
)

// phpClauses returns the pigeonhole instance PHP(p, h) as DIMACS-style
// clauses, so benchmarks can replay the same formula into many solvers.
func phpClauses(pigeons, holes int) [][]Lit {
	var cnf [][]Lit
	lit := func(p, h int) Lit { return Lit(p*holes + h + 1) }
	for p := 0; p < pigeons; p++ {
		var c []Lit
		for h := 0; h < holes; h++ {
			c = append(c, lit(p, h))
		}
		cnf = append(cnf, c)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				cnf = append(cnf, []Lit{-lit(p1, h), -lit(p2, h)})
			}
		}
	}
	return cnf
}

// BenchmarkSolverReuse measures the incremental pattern the model checker's
// Session relies on: one persistent solver answering a stream of queries
// under changing assumptions. PHP(8,8) is satisfiable (a perfect matching);
// assuming pigeon 0 into a different hole each call invalidates the saved
// model, so every iteration runs real propagate/analyze work against warm
// watcher lists and scratch buffers.
func BenchmarkSolverReuse(b *testing.B) {
	const n = 8
	s := New()
	for _, c := range phpClauses(n, n) {
		if _, err := s.AddClause(c...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		force := Lit(0*n + i%n + 1) // pigeon 0 in hole i%n
		if st := s.Solve(force); st != Sat {
			b.Fatalf("Solve = %v, want Sat", st)
		}
	}
}

// BenchmarkSolverFresh is the baseline BenchmarkSolverReuse is compared
// against: the same query stream but a brand-new solver (re-adding every
// clause) per call, as the pre-Session checker did.
func BenchmarkSolverFresh(b *testing.B) {
	const n = 8
	cnf := phpClauses(n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for _, c := range cnf {
			if _, err := s.AddClause(c...); err != nil {
				b.Fatal(err)
			}
		}
		force := Lit(0*n + i%n + 1)
		if st := s.Solve(force); st != Sat {
			b.Fatalf("Solve = %v, want Sat", st)
		}
	}
}

// BenchmarkSolveScoped measures what a decision scope saves a pooled
// session: one persistent solver holds a small query cone (a 32-input parity
// tree and an OR of pairwise ANDs) plus a large definitional block that
// reads the cone but feeds no query, the shape of a BMC session's deeper
// frames and earlier properties. In "cone" and "nil" each iteration flips
// the assumed output values, so every solve finds a new model; "cone"
// decides only on the query's Tseitin cone, "nil" on every variable.
// "unsat" assumes two leaves of one AND pair and the OR false, which
// propagation refutes before any decision, the shape of most scoped solves
// in the model checker's ladders. Every case reports heap_loads/op, the
// variables loaded into the decision-order heap per solve.
func BenchmarkSolveScoped(b *testing.B) {
	s := New()
	var cone []int
	fresh := func(inCone bool) Lit {
		v := s.NewVar()
		if inCone {
			cone = append(cone, v)
		}
		return Lit(v)
	}
	and := func(x, y Lit, inCone bool) Lit {
		o := fresh(inCone)
		s.AddClause(-x, -y, o)
		s.AddClause(x, -o)
		s.AddClause(y, -o)
		return o
	}
	xor := func(x, y Lit, inCone bool) Lit {
		o := fresh(inCone)
		s.AddClause(-x, -y, -o)
		s.AddClause(x, y, -o)
		s.AddClause(-x, y, o)
		s.AddClause(x, -y, o)
		return o
	}
	leaves := make([]Lit, 32)
	for i := range leaves {
		leaves[i] = fresh(true)
	}
	parity, any := leaves[0], Lit(0)
	for i := 1; i < len(leaves); i++ {
		parity = xor(parity, leaves[i], true)
	}
	for i := 0; i+1 < len(leaves); i += 2 {
		p := and(leaves[i], leaves[i+1], true)
		if any == 0 {
			any = p
		} else {
			any = -and(-any, -p, true)
		}
	}
	// The unrelated block: 20,000 gates over the cone's signals and fresh
	// inputs, none of them assumed.
	pool := append([]Lit{parity, any}, leaves...)
	for i := 0; i < 20000; i++ {
		x, y := pool[(i*7)%len(pool)], pool[(i*13+5)%len(pool)]
		if i%5 == 0 {
			y = fresh(false)
		}
		var o Lit
		if i%2 == 0 {
			o = and(x, -y, false)
		} else {
			o = xor(x, y, false)
		}
		pool = append(pool, o)
	}
	ctx := context.Background()
	full := func() []int { return cone }
	query := func(i int) []Lit {
		p, q := parity, any
		if i&1 == 1 {
			p = -p
		}
		if i&2 == 2 {
			q = -q
		}
		return []Lit{p, q}
	}
	refuted := func(i int) []Lit {
		k := 2 * (i % 16) // pair k, k+1 feeds the OR
		return []Lit{leaves[k], leaves[k+1], -any}
	}
	for _, tc := range []struct {
		name   string
		scope  func() []int
		assume func(int) []Lit
		want   Status
	}{
		{"cone", full, query, Sat},
		{"nil", nil, query, Sat},
		{"unsat", full, refuted, Unsat},
	} {
		b.Run(tc.name, func(b *testing.B) {
			loads := s.HeapLoads
			for i := 0; i < b.N; i++ {
				if st := s.SolveScoped(ctx, tc.scope, tc.assume(i)...); st != tc.want {
					b.Fatalf("SolveScoped = %v, want %v", st, tc.want)
				}
			}
			b.ReportMetric(float64(s.HeapLoads-loads)/float64(b.N), "heap_loads/op")
		})
	}
}
