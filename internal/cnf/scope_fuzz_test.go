package cnf

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"goldmine/internal/sat"
)

// gateRec is one gate the fuzz builder emitted through the Unroller's own
// primitives, kept with its literal polarities so a partial model can be
// completed by evaluation.
type gateRec struct {
	kind byte // 'a' and, 'x' xor, 'm' mux (c ? t : f)
	in   [3]sat.Lit
	out  sat.Lit
}

// byteStream hands out fuzz bytes, then zeros once the input is exhausted,
// so every input decodes to some well-formed DAG.
type byteStream struct {
	data []byte
	pos  int
}

func (r *byteStream) next() int {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return int(b)
}

// scopeDAG is a random formula in the shape the model checker's BMC session
// gives the solver: gate definitions over leaves, reset units on some leaves,
// retired activation-guarded clauses, and logic built on top of the queried
// cone that no query mentions (later frames, earlier properties).
type scopeDAG struct {
	u       *Unroller
	gates   []gateRec
	queries [][]sat.Lit
	// hyps are k-induction steps run after the queries, under one live
	// activation literal hypAct: each step adds the guarded hypothesis
	// clause ¬hypAct ∨ ¬l for l in lits, then solves its query under hypAct.
	hypAct sat.Lit
	hyps   []hypStep
}

// hypStep is one induction step of a scopeDAG: a hypothesis over query-cone
// literals and the step query that follows it.
type hypStep struct {
	lits  []sat.Lit
	query []sat.Lit
}

// buildScopeDAG decodes one formula from the fuzz bytes. It is deterministic,
// so two calls give twin solvers with identical variable numbering.
func buildScopeDAG(data []byte) *scopeDAG {
	r := &byteStream{data: data}
	s := sat.New()
	g := &scopeDAG{u: NewUnroller(s, nil)}
	u := g.u
	pool := []sat.Lit{u.True()}
	pick := func() sat.Lit {
		l := pool[r.next()%len(pool)]
		if r.next()&1 == 1 {
			return l.Neg()
		}
		return l
	}
	addLeaves := func(n int) {
		for i := 0; i < n; i++ {
			l := u.fresh()
			if r.next()%4 == 0 {
				u.S.AddClause(l.Neg()) // a reset unit, as InitZero emits
			}
			pool = append(pool, l)
		}
	}
	addGates := func(n int) {
		for i := 0; i < n; i++ {
			before := u.S.NumVars()
			var rec gateRec
			switch r.next() % 3 {
			case 0:
				rec.kind, rec.in[0], rec.in[1] = 'a', pick(), pick()
				rec.out = u.andGate(rec.in[0], rec.in[1])
			case 1:
				rec.kind, rec.in[0], rec.in[1] = 'x', pick(), pick()
				rec.out = u.xorGate(rec.in[0], rec.in[1])
			default:
				rec.kind, rec.in[0], rec.in[1], rec.in[2] = 'm', pick(), pick(), pick()
				rec.out = u.muxGate(rec.in[0], rec.in[1], rec.in[2])
			}
			if u.S.NumVars() > before {
				g.gates = append(g.gates, rec) // a fresh gate, not a folded constant or alias
			}
			pool = append(pool, rec.out)
		}
	}

	addLeaves(2 + r.next()%6)
	addGates(1 + r.next()%24)
	queryPool := len(pool)

	// Retired logic: clauses guarded by an activation literal, then the
	// unit ¬act that retires them (the k-induction hypothesis pattern).
	act := u.fresh()
	for i := r.next() % 4; i > 0; i-- {
		u.S.AddClause(act.Neg(), pick(), pick())
	}
	u.S.AddClause(act.Neg())

	// Deeper frames: fresh inputs and gates that read the query cone but
	// feed no query.
	addLeaves(r.next() % 4)
	addGates(r.next() % 24)

	// Queries share a random-length prefix with the previous query, as
	// canonicalisation probes do, so the solver keeps part of its trail.
	coneLits := func(prefix []sat.Lit, n int) []sat.Lit {
		lits := append([]sat.Lit(nil), prefix[:r.next()%(len(prefix)+1)]...)
		for ; n > 0; n-- {
			l := pool[r.next()%queryPool]
			if r.next()&1 == 1 {
				l = l.Neg()
			}
			lits = append(lits, l)
		}
		return lits
	}
	var prev []sat.Lit
	for q := 1 + r.next()%5; q > 0; q-- {
		prev = coneLits(prev, 1+r.next()%4)
		g.queries = append(g.queries, prev)
	}

	// Induction steps: the live hypotheses sit on the query cone, and every
	// step query starts with the activation literal.
	g.hypAct = u.fresh()
	prev = nil
	for k := r.next() % 4; k > 0; k-- {
		hyp := coneLits(nil, 1+r.next()%3)
		prev = coneLits(prev, 1+r.next()%3)
		g.hyps = append(g.hyps, hypStep{lits: hyp, query: append([]sat.Lit{g.hypAct}, prev...)})
	}
	return g
}

// problemClauses reads the solver's problem clauses and level-0 units back
// through its DIMACS export.
func problemClauses(t *testing.T, s *sat.Solver) [][]sat.Lit {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteDIMACS(&buf); err != nil {
		t.Fatal(err)
	}
	var out [][]sat.Lit
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "c") || strings.HasPrefix(line, "p") {
			continue
		}
		var c []sat.Lit
		for _, tok := range strings.Fields(line) {
			v, err := strconv.Atoi(tok)
			if err != nil {
				t.Fatalf("bad DIMACS token %q", tok)
			}
			if v != 0 {
				c = append(c, sat.Lit(v))
			}
		}
		out = append(out, c)
	}
	return out
}

// checkCompletion completes a scoped Sat model — solver values inside the
// scope and for leaves (unassigned leaves read false), every gate outside the
// scope evaluated in creation (topological) order — and requires every
// clause and every assumption to hold.
func checkCompletion(t *testing.T, g *scopeDAG, scope []int, assumps []sat.Lit) {
	t.Helper()
	s := g.u.S
	val := make([]bool, s.NumVars()+1)
	for v := 1; v <= s.NumVars(); v++ {
		val[v] = s.Value(v)
	}
	inScope := make([]bool, len(val))
	for _, v := range scope {
		inScope[v] = true
	}
	lit := func(l sat.Lit) bool { return val[l.Var()] == (l > 0) }
	for _, gr := range g.gates {
		if inScope[gr.out.Var()] {
			continue
		}
		var x bool
		switch gr.kind {
		case 'a':
			x = lit(gr.in[0]) && lit(gr.in[1])
		case 'x':
			x = lit(gr.in[0]) != lit(gr.in[1])
		default:
			if lit(gr.in[0]) {
				x = lit(gr.in[1])
			} else {
				x = lit(gr.in[2])
			}
		}
		val[gr.out.Var()] = x == (gr.out > 0)
	}
	for _, l := range assumps {
		if !lit(l) {
			t.Fatalf("assumption %d false in the completed model", l)
		}
	}
	for _, c := range problemClauses(t, s) {
		ok := false
		for _, l := range c {
			ok = ok || lit(l)
		}
		if !ok {
			t.Fatalf("clause %v violated by the completed scoped model (scope %v)", c, scope)
		}
	}
}

// FuzzScopedSolve is the net under the decision-scope rule: on twin solvers
// holding the same random gate DAG, a solve scoped to the Tseitin cone of its
// assumptions (ConeVars) must give the unscoped verdict, and every scoped Sat
// model, completed by evaluating the undecided gates, must satisfy every
// clause. Each input runs a short query sequence on one solver, with an
// unscoped solve after each scoped one, so a heap left loaded for one scope
// cannot leak into the next solve: the unscoped model must be total.
// Consecutive queries share assumption prefixes, so the solver keeps the
// trail of the shared prefix between solves. The sequence ends with
// k-induction steps under a live activation literal, scoped as
// mc.Session.inductionLadder scopes them: the cone of the activation
// literal, every live hypothesis literal and the step query. The seed corpus
// runs under plain go test; the fuzz engine with
// go test -run '^$' -fuzz FuzzScopedSolve ./internal/cnf.
func FuzzScopedSolve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 5, 0, 0, 0, 0, 0, 23, 2, 3, 1, 1, 4, 0, 7, 1})
	// An induction step whose hypothesis lies outside the step query's cone:
	// scoping the step to the query's cone alone gives a model that violates
	// the live hypothesis clause.
	f.Add([]byte("20010&11000000000000000000021010000000000000000000000000000000000000000000000000000000000000000001000001001"))
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 48; i++ {
		seed := make([]byte, 24+i*4)
		for j := range seed {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			seed[j] = byte(x)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, twin := buildScopeDAG(data), buildScopeDAG(data)
		ctx := context.Background()
		solve := func(name string, assumps, roots []sat.Lit) {
			scope := g.u.ConeVars(roots)
			for _, v := range scope {
				if v < len(g.u.gates) && g.u.gates[v][0] != 0 {
					in := []int{int(g.u.gates[v][0])}
					if b := g.u.gates[v][1]; b > 0 {
						in = append(in, int(b))
					} else {
						d := g.u.muxData[-b-1]
						in = append(in, int(d[0]), int(d[1]))
					}
					for _, w := range in {
						if !contains(scope, w) {
							t.Fatalf("%s: cone holds gate %d but not its input %d", name, v, w)
						}
					}
				}
			}
			got := g.u.S.SolveScoped(ctx, func() []int { return scope }, assumps...)
			want := twin.u.S.Solve(assumps...)
			if got != want {
				t.Fatalf("%s %v: scoped %v, unscoped %v", name, assumps, got, want)
			}
			if got == sat.Sat {
				checkCompletion(t, g, scope, assumps)
			}
			// An unscoped solve after a scoped one decides every variable:
			// its model must satisfy every clause as read, with nothing
			// completed.
			if st := g.u.S.Solve(assumps...); st != want {
				t.Fatalf("%s: unscoped after scoped %v, want %v", name, st, want)
			} else if st == sat.Sat {
				all := make([]int, g.u.S.NumVars())
				for i := range all {
					all[i] = i + 1
				}
				checkCompletion(t, g, all, assumps)
			}
		}
		for qi, assumps := range g.queries {
			solve(fmt.Sprintf("query %d", qi), assumps, assumps)
		}
		roots := []sat.Lit{g.hypAct}
		for k, h := range g.hyps {
			for _, st := range []*scopeDAG{g, twin} {
				clause := []sat.Lit{st.hypAct.Neg()}
				for _, l := range h.lits {
					clause = append(clause, l.Neg())
				}
				st.u.S.AddClause(clause...)
			}
			roots = append(roots, h.lits...)
			solve(fmt.Sprintf("induction step %d", k+1), h.query, append(roots[:len(roots):len(roots)], h.query...))
		}
	})
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
