package sat

import (
	"math/rand"
	"testing"
)

// traceStats is the search trace of one traceWorkload run: the solver's
// statistics after its last solve, and the verdict of every solve in order.
type traceStats struct {
	Conflicts, Decisions, Propagations, Restarts, Learned int64
	Verdicts                                              string
}

// traceWorkload runs a seeded incremental random 3-SAT session of nv
// variables on one solver. 3.0·nv clauses are permanent; each round adds
// 1.2·nv more guarded by a fresh activation literal act (clause ∨ ¬act), so
// every solve sees clause ratio 4.2. Every round solves under act and a few
// random assumption literals, twice with a shared assumption prefix, and is
// then retired by the unit ¬act plus Simplify, as the model checker retires
// a property. The sessions learn thousands of clauses, so reduceDB runs 22 to
// 61 times per session with learnt reasons on the trail.
func traceWorkload(seed int64, nv, rounds int) traceStats {
	rng := rand.New(rand.NewSource(seed))
	s := New()
	for v := 0; v < nv; v++ {
		s.NewVar()
	}
	clause := func() []Lit {
		var c []Lit
		for len(c) < 3 {
			l := Lit(1 + rng.Intn(nv))
			if rng.Intn(2) == 1 {
				l = -l
			}
			dup := false
			for _, x := range c {
				dup = dup || x.Var() == l.Var()
			}
			if !dup {
				c = append(c, l)
			}
		}
		return c
	}
	for i := 0; i < nv*3; i++ {
		s.AddClause(clause()...)
	}
	var verdicts []byte
	for r := 0; r < rounds; r++ {
		act := Lit(s.NewVar())
		for i := 0; i < nv*12/10; i++ {
			s.AddClause(append(clause(), -act)...)
		}
		assumps := []Lit{act}
		for i := 0; i < 3; i++ {
			assumps = append(assumps, clause()[0])
		}
		for _, as := range [][]Lit{assumps, append(assumps[:2:2], clause()...)} {
			verdicts = append(verdicts, s.Solve(as...).String()[0])
		}
		s.AddClause(-act)
		s.Simplify()
	}
	return traceStats{s.Conflicts, s.Decisions, s.Propagations, s.Restarts, s.Learned, string(verdicts)}
}

// TestSearchTraceGolden pins the search trace of seeded incremental random
// 3-SAT sessions: conflict, decision, propagation, restart and learnt-clause
// counts and every verdict. A change to clause storage, watch-list order,
// propagation order or clause-database reduction that is meant to leave the
// search untouched must leave this table unchanged; one that changes the
// search on purpose re-records it and says so.
func TestSearchTraceGolden(t *testing.T) {
	cases := []struct {
		seed       int64
		nv, rounds int
		want       traceStats
	}{
		{1, 150, 6, traceStats{5464, 6671, 167919, 36, 5464, "UUSUUUSSUUUU"}},
		{3, 175, 4, traceStats{9058, 11063, 321982, 53, 9058, "UUSUSSSS"}},
		{6, 200, 4, traceStats{20197, 24601, 777114, 110, 20197, "USSSUUUU"}},
	}
	for _, c := range cases {
		got := traceWorkload(c.seed, c.nv, c.rounds)
		if got != c.want {
			t.Errorf("seed %d (%d vars, %d rounds): trace %+v, want %+v", c.seed, c.nv, c.rounds, got, c.want)
		}
	}
}
