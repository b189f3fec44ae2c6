package assertion

import "sort"

// This file implements the A-Val phase of the GoldMine architecture
// (Figure 1 of the paper): evaluating machine-generated assertions so a
// human sees the most valuable ones first, and pruning logically redundant
// ones from a suite.

// Metrics summarizes an assertion's evaluation-phase figures of merit.
type Metrics struct {
	// Complexity is the antecedent size (smaller = more general).
	Complexity int
	// InputSpace is the covered input-space fraction 1/2^depth.
	InputSpace float64
	// Support is the number of trace rows that backed the rule.
	Support int
	// TemporalDepth is the largest cycle offset mentioned.
	TemporalDepth int
	// Score is the composite importance used for ranking.
	Score float64
}

// Evaluate computes the metrics of one assertion.
func Evaluate(a *Assertion) Metrics {
	m := Metrics{
		Complexity: len(a.Antecedent),
		InputSpace: a.InputSpaceFraction(),
		Support:    a.Support,
	}
	m.TemporalDepth = a.Consequent.Offset
	for _, p := range a.Antecedent {
		if p.Offset > m.TemporalDepth {
			m.TemporalDepth = p.Offset
		}
	}
	// Generality dominates; support breaks ties; temporal behaviour is a
	// mild bonus (temporal assertions carry more design insight).
	m.Score = m.InputSpace*100 + float64(m.Support) + float64(m.TemporalDepth)*0.5
	return m
}

// Rank sorts assertions by descending importance (stable; ties broken by
// canonical key for reproducibility).
func Rank(as []*Assertion) []*Assertion {
	out := append([]*Assertion(nil), as...)
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := Evaluate(out[i]).Score, Evaluate(out[j]).Score
		if si != sj {
			return si > sj
		}
		return out[i].Key() < out[j].Key()
	})
	return out
}

// Subsumes reports whether a logically implies b: same consequent
// proposition, and a's antecedent is a subset of b's. If a is a proven
// invariant, b adds nothing to a suite containing a.
func Subsumes(a, b *Assertion) bool {
	if !sameProp(a.Consequent, b.Consequent) || len(a.Antecedent) > len(b.Antecedent) {
		return false
	}
next:
	for _, p := range a.Antecedent {
		for _, q := range b.Antecedent {
			if sameProp(p, q) {
				continue next
			}
		}
		return false
	}
	return true
}

// sameProp reports whether two propositions test the same bit or signal at
// the same offset for the same value (Width is descriptive, not compared).
func sameProp(p, q Prop) bool {
	return p.Signal == q.Signal && p.Bit == q.Bit && p.Offset == q.Offset && p.Value == q.Value
}

// ReduceSuite removes assertions subsumed by another assertion in the suite
// (and exact duplicates), preserving rank order.
func ReduceSuite(as []*Assertion) []*Assertion {
	ranked := Rank(as)
	var kept []*Assertion
	seen := map[string]bool{}
	for _, cand := range ranked {
		key := cand.Key()
		if seen[key] {
			continue
		}
		redundant := false
		for _, k := range kept {
			if Subsumes(k, cand) {
				redundant = true
				break
			}
		}
		if redundant {
			continue
		}
		seen[key] = true
		kept = append(kept, cand)
	}
	return kept
}
