package core

import (
	"context"
	"fmt"

	"goldmine/internal/assertion"
	"goldmine/internal/sim"
)

// MinimizeCtx shrinks a counterexample stimulus while preserving the
// violation of the given assertion: it drops leading cycles (the violation
// window must stay at the end) and then zeroes input bits cycle by cycle,
// keeping each simplification only if the assertion is still violated in the
// final window. The result is a minimal, human-readable test pattern — the
// validation artifact engineers actually read. Candidates run on the
// engine's batch machine: do not call it while the engine is mining.
func (e *Engine) MinimizeCtx(ctx context.Context, a *assertion.Assertion, stim sim.Stimulus) (sim.Stimulus, error) {
	if len(stim) == 0 {
		return nil, fmt.Errorf("empty counterexample")
	}
	violates := func(cand sim.Stimulus) bool {
		tr, err := e.simulate(ctx, cand)
		if err != nil {
			return false
		}
		return violatesAt(tr, a, len(cand)-(a.Consequent.Offset+1))
	}
	if !violates(stim) {
		return nil, fmt.Errorf("stimulus does not violate the assertion")
	}
	cur := stim.Clone()

	// Phase 1: drop leading cycles.
	for len(cur) > a.Consequent.Offset+1 {
		cand := cur[1:].Clone()
		if !violates(cand) {
			break
		}
		cur = cand
	}
	// Phase 2: zero non-essential input assignments.
	for c := range cur {
		for _, in := range e.D.Inputs() {
			if cur[c][in.Name] == 0 {
				delete(cur[c], in.Name)
				continue
			}
			saved := cur[c][in.Name]
			cur[c][in.Name] = 0
			if !violates(cur) {
				cur[c][in.Name] = saved
			} else {
				delete(cur[c], in.Name)
			}
		}
	}
	return cur, nil
}

// violatesAt reports whether the assertion's antecedent matches and the
// consequent fails in the window starting at cycle p0 of the trace.
func violatesAt(tr *sim.Trace, a *assertion.Assertion, p0 int) bool {
	if p0 < 0 || p0+a.Consequent.Offset >= tr.Cycles() {
		return false
	}
	read := func(c int, p assertion.Prop) (uint64, bool) {
		v, err := tr.Value(c, p.Signal)
		if err != nil {
			return 0, false
		}
		if p.Bit >= 0 {
			return (v >> uint(p.Bit)) & 1, true
		}
		return v, true
	}
	for _, p := range a.Antecedent {
		v, ok := read(p0+p.Offset, p)
		if !ok || v != p.Value {
			return false
		}
	}
	cv, ok := read(p0+a.Consequent.Offset, a.Consequent)
	return ok && cv != a.Consequent.Value
}
