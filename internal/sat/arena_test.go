package sat

import (
	"math/rand"
	"strings"
	"testing"
)

// checkArena verifies the clause-store invariants: both lists hold live
// clauses of the right kind, every live clause is watched exactly on the
// negations of its first two literals, a watcher carries the binary flag
// exactly when its clause has two literals (and then its blocker is the
// other literal), and every reason on the trail is a live clause that holds
// the literal it implied.
func checkArena(t *testing.T, s *Solver) {
	t.Helper()
	live := map[cref]int{}
	for i, cs := range [][]cref{s.clauses, s.learnts} {
		for _, c := range cs {
			if s.ca.deleted(c) || s.ca.learnt(c) != (i == 1) || s.ca.size(c) < 2 {
				t.Fatalf("list %d holds clause %d: deleted %v, learnt %v, size %d",
					i, c, s.ca.deleted(c), s.ca.learnt(c), s.ca.size(c))
			}
			live[c] = 0
		}
	}
	for key, ws := range s.watches {
		for _, w := range ws {
			c := w.cref &^ binaryWatch
			n, ok := live[c]
			if !ok {
				t.Fatalf("watch list %d holds dead clause %d", key, c)
			}
			live[c] = n + 1
			lits := s.ca.lits(c)
			if lits[0].neg() != ilit(key) && lits[1].neg() != ilit(key) {
				t.Fatalf("clause %d watched on %d, not on its first two literals %v", c, key, lits)
			}
			if (w.cref&binaryWatch != 0) != (len(lits) == 2) {
				t.Fatalf("clause %d of size %d: binary flag %v", c, len(lits), w.cref&binaryWatch != 0)
			}
			if len(lits) == 2 && w.blocker.neg() == ilit(key) {
				t.Fatalf("binary clause %d watched on %d blocks on its own watch", c, key)
			}
		}
	}
	for c, n := range live {
		if n != 2 {
			t.Fatalf("clause %d has %d watchers", c, n)
		}
	}
	for _, il := range s.trail {
		r := s.vars[il.vix()].reason
		if r == crefUndef {
			continue
		}
		if _, ok := live[r]; !ok {
			t.Fatalf("literal %d has dead reason %d", il, r)
		}
		found := false
		for _, l := range s.ca.lits(r) {
			found = found || l == il
		}
		if !found {
			t.Fatalf("reason %d of literal %d does not hold it", r, il)
		}
	}
}

func dimacs(t *testing.T, s *Solver) string {
	t.Helper()
	var sb strings.Builder
	if err := s.WriteDIMACS(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestArenaCompaction forces the arena to compact after every reduceDB and
// Simplify that frees a clause (through compactHook), so compaction runs
// mid-search with learnt reasons on the trail above level 0, and once more
// by hand after every solve, when the trail still holds the last solve's
// assumptions and implications. The workload is incremental random 3-SAT
// with activation literals retired by ¬act plus Simplify. The compacting
// solver must take exactly the search of a twin that compacts only at the
// production threshold; every decided verdict must equal a fresh solver's;
// every Sat model must satisfy every clause and assumption; the clause
// store must keep its invariants; and WriteDIMACS must print the same
// formula before and after a compaction.
func TestArenaCompaction(t *testing.T) {
	midSearch := 0
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const nv = 150
		s, twin := New(), New()
		s.compactHook = func() bool {
			if s.decisionLevel() > 0 {
				for _, il := range s.trail[s.trailLim[0]:] {
					if s.vars[il.vix()].reason != crefUndef {
						midSearch++
						break
					}
				}
			}
			return true
		}
		var cnf [][]Lit
		add := func(c ...Lit) {
			cnf = append(cnf, c)
			s.AddClause(c...)
			twin.AddClause(c...)
		}
		lit := func() Lit {
			l := Lit(1 + rng.Intn(nv))
			if rng.Intn(2) == 1 {
				return -l
			}
			return l
		}
		for i := 0; i < nv*26/10; i++ {
			add(lit(), lit(), lit())
		}
		for i := 0; i < nv/8; i++ {
			add(lit(), lit())
		}
		for round := 0; round < 5; round++ {
			act := Lit(nv + 1 + round)
			for i := 0; i < nv*12/10; i++ {
				add(lit(), lit(), lit(), -act)
			}
			assumps := []Lit{act, lit(), lit()}
			for _, as := range [][]Lit{assumps, append(assumps[:2:2], lit()), append(assumps[:2:2], lit(), lit())} {
				st, tst := s.Solve(as...), twin.Solve(as...)
				if st != tst || s.Conflicts != twin.Conflicts || s.Decisions != twin.Decisions ||
					s.Propagations != twin.Propagations || s.Learned != twin.Learned {
					t.Fatalf("seed %d round %d: compacting solver diverged from its twin: %v %v vs %v %v",
						seed, round, st, s, tst, twin)
				}
				fresh := New()
				for _, c := range cnf {
					fresh.AddClause(c...)
				}
				if fst := fresh.Solve(as...); fst != st {
					t.Fatalf("seed %d round %d: verdict %v under %v, fresh solver %v", seed, round, st, as, fst)
				}
				if st == Sat {
					for _, c := range cnf {
						sat := false
						for _, l := range c {
							sat = sat || s.ValueLit(l)
						}
						if !sat {
							t.Fatalf("seed %d round %d: clause %v violated by the model", seed, round, c)
						}
					}
					for _, a := range as {
						if !s.ValueLit(a) {
							t.Fatalf("seed %d round %d: assumption %d violated by the model", seed, round, a)
						}
					}
				}
				checkArena(t, s)
				before := dimacs(t, s)
				s.compact()
				checkArena(t, s)
				if s.ca.wasted != 0 {
					t.Fatalf("seed %d round %d: %d wasted words after compaction", seed, round, s.ca.wasted)
				}
				if after := dimacs(t, s); after != before {
					t.Fatalf("seed %d round %d: DIMACS changed by compaction:\n%s\nvs\n%s", seed, round, before, after)
				}
			}
			add(-act)
			s.Simplify()
			twin.Simplify()
			checkArena(t, s)
		}
	}
	if midSearch < 20 {
		t.Fatalf("only %d compactions ran with reasons above level 0", midSearch)
	}
}

// TestBinaryReasonLocked: a binary clause implies either of its literals
// through its watcher without being reordered, so it is locked whichever
// literal it implied. At level 0, Simplify must keep it although it is
// satisfied; above level 0, reduceDB must keep it.
func TestBinaryReasonLocked(t *testing.T) {
	s := New()
	s.AddClause(1, 2) // stored as [1, 2]
	if st := s.Solve(-1); st != Sat || !s.Value(2) {
		t.Fatalf("(1 2) under ¬1: %v, x2=%v", st, s.Value(2))
	}
	if !s.locked(s.clauses[0]) {
		t.Fatal("(1 2) implied x2 above level 0 but is not locked")
	}
	s.AddClause(-1) // level 0: (1 2) now implies x2 for good
	s.Simplify()
	if s.NumClauses() != 1 {
		t.Fatalf("Simplify removed the level-0 reason of x2: %d clauses left", s.NumClauses())
	}
	checkArena(t, s)
}
