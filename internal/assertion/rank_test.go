package assertion

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func mk(cons Prop, sup int, ants ...Prop) *Assertion {
	a := &Assertion{Output: cons.Signal, Antecedent: ants, Consequent: cons, Support: sup}
	a.Normalize()
	return a
}

func TestEvaluateMetrics(t *testing.T) {
	a := mk(P("z", 2, 1, 1), 5, P("a", 0, 1, 1), P("b", 1, 0, 1))
	m := Evaluate(a)
	if m.Complexity != 2 {
		t.Errorf("complexity %d", m.Complexity)
	}
	if m.InputSpace != 0.25 {
		t.Errorf("input space %f", m.InputSpace)
	}
	if m.Support != 5 {
		t.Errorf("support %d", m.Support)
	}
	if m.TemporalDepth != 2 {
		t.Errorf("temporal depth %d", m.TemporalDepth)
	}
}

func TestRankPrefersGeneralAssertions(t *testing.T) {
	general := mk(P("z", 0, 1, 1), 10, P("a", 0, 1, 1))
	specific := mk(P("z", 0, 1, 1), 1, P("a", 0, 1, 1), P("b", 0, 1, 1), P("c", 0, 1, 1))
	ranked := Rank([]*Assertion{specific, general})
	if ranked[0] != general {
		t.Error("general assertion should rank first")
	}
	// Rank must not mutate the input slice order.
	in := []*Assertion{specific, general}
	Rank(in)
	if in[0] != specific {
		t.Error("Rank mutated its input")
	}
}

func TestSubsumes(t *testing.T) {
	broad := mk(P("z", 1, 0, 1), 4, P("a", 0, 1, 1))
	narrow := mk(P("z", 1, 0, 1), 1, P("a", 0, 1, 1), P("b", 0, 0, 1))
	if !Subsumes(broad, narrow) {
		t.Error("broad should subsume narrow")
	}
	if Subsumes(narrow, broad) {
		t.Error("narrow must not subsume broad")
	}
	// Different consequent value: no subsumption.
	other := mk(P("z", 1, 1, 1), 1, P("a", 0, 1, 1), P("b", 0, 0, 1))
	if Subsumes(broad, other) {
		t.Error("different consequent must not be subsumed")
	}
	// Different antecedent value: no subsumption.
	diff := mk(P("z", 1, 0, 1), 1, P("a", 0, 0, 1), P("b", 0, 0, 1))
	if Subsumes(broad, diff) {
		t.Error("a=1 does not imply a=0 paths")
	}
	// Self-subsumption holds (used by duplicate elimination).
	if !Subsumes(broad, broad) {
		t.Error("assertion should subsume itself")
	}
}

func TestReduceSuite(t *testing.T) {
	broad := mk(P("z", 1, 0, 1), 4, P("a", 0, 1, 1))
	narrow := mk(P("z", 1, 0, 1), 1, P("a", 0, 1, 1), P("b", 0, 0, 1))
	dup := mk(P("z", 1, 0, 1), 4, P("a", 0, 1, 1))
	unrelated := mk(P("z", 1, 1, 1), 2, P("c", 0, 1, 1))
	out := ReduceSuite([]*Assertion{narrow, broad, dup, unrelated})
	if len(out) != 2 {
		t.Fatalf("reduced suite size %d want 2: %v", len(out), out)
	}
	keys := map[string]bool{}
	for _, a := range out {
		keys[a.Key()] = true
	}
	if !keys[broad.Key()] || !keys[unrelated.Key()] {
		t.Errorf("wrong survivors: %v", out)
	}
}

func TestQuickSubsumptionReflexiveAndAntisymmetric(t *testing.T) {
	f := func(sigBits uint8, vals uint8) bool {
		// Build two assertions over up to 4 atoms; a gets a subset of b's.
		var all []Prop
		names := []string{"p", "q", "r", "s"}
		for i, n := range names {
			all = append(all, P(n, 0, uint64(vals>>uint(i))&1, 1))
		}
		cons := P("z", 1, 1, 1)
		bAnts := all
		var aAnts []Prop
		for i := range all {
			if sigBits&(1<<uint(i)) != 0 {
				aAnts = append(aAnts, all[i])
			}
		}
		a := mk(cons, 1, aAnts...)
		b := mk(cons, 1, bAnts...)
		if !Subsumes(a, b) { // subset antecedent must subsume
			return false
		}
		if len(aAnts) < len(bAnts) && Subsumes(b, a) {
			return false
		}
		return Subsumes(a, a) && Subsumes(b, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSubsumesMatchesStringKeys checks Subsumes against the string-key
// reference it replaced: a's antecedent keys must all be among b's, where a
// key renders Name()@offset=value. On bracket-free signal names the two
// agree.
func TestQuickSubsumesMatchesStringKeys(t *testing.T) {
	key := func(p Prop) string { return fmt.Sprintf("%s@%d=%d", p.Name(), p.Offset, p.Value) }
	ref := func(a, b *Assertion) bool {
		if key(a.Consequent) != key(b.Consequent) || len(a.Antecedent) > len(b.Antecedent) {
			return false
		}
		keys := map[string]bool{}
		for _, p := range b.Antecedent {
			keys[key(p)] = true
		}
		for _, p := range a.Antecedent {
			if !keys[key(p)] {
				return false
			}
		}
		return true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prop := func() Prop {
			return Prop{
				Signal: []string{"a", "b", "c"}[rng.Intn(3)],
				Bit:    rng.Intn(3) - 1,
				Offset: rng.Intn(3),
				Value:  uint64(rng.Intn(3)),
				Width:  1 + rng.Intn(2),
			}
		}
		props := func(n int) []Prop {
			out := make([]Prop, n)
			for i := range out {
				out[i] = prop()
			}
			return out
		}
		b := &Assertion{Consequent: prop(), Antecedent: props(rng.Intn(5))}
		a := &Assertion{Consequent: b.Consequent, Antecedent: props(rng.Intn(4))}
		if rng.Intn(2) == 0 {
			// A subset of b's antecedent, so that subsumption often holds.
			a.Antecedent = a.Antecedent[:0]
			for _, p := range b.Antecedent {
				if rng.Intn(2) == 0 {
					a.Antecedent = append(a.Antecedent, p)
				}
			}
		}
		if rng.Intn(4) == 0 {
			a.Consequent = prop()
		}
		return Subsumes(a, b) == ref(a, b) && Subsumes(b, a) == ref(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
