package mc

import (
	"errors"
	"reflect"
	"testing"

	"goldmine/internal/assertion"
)

// satOnlyOptions forces every check onto the SAT engines (the paths a
// Session changes) by disqualifying the explicit-state engine.
func satOnlyOptions() Options {
	o := DefaultOptions()
	o.MaxStateBits = 0
	return o
}

// arbiterSuite is a mix of provable, falsifiable, and multi-cycle assertions
// over the arbiter fixture.
func arbiterSuite() []*assertion.Assertion {
	return []*assertion.Assertion{
		// Falsified: req0 alone does not imply gnt0 immediately.
		{Output: "gnt0", Antecedent: []assertion.Prop{prop("req0", 0, 1)}, Consequent: prop("gnt0", 0, 1), Window: 1},
		// Falsified at depth > 1: gnt0 can rise one cycle after req0&~req1.
		{Output: "gnt0", Antecedent: []assertion.Prop{prop("req0", 0, 1), prop("req1", 0, 0)}, Consequent: prop("gnt0", 1, 0), Window: 2},
		// Proved: grants are one-hot by construction.
		{Output: "gnt1", Antecedent: []assertion.Prop{prop("gnt0", 0, 1)}, Consequent: prop("gnt1", 0, 0), Window: 1},
		// Proved: no request, no grant next cycle.
		{Output: "gnt0", Antecedent: []assertion.Prop{prop("req0", 0, 0), prop("rst", 0, 0), prop("gnt0", 0, 0)}, Consequent: prop("gnt0", 1, 0), Window: 2},
		// Falsified: gnt1 is reachable.
		{Output: "gnt1", Antecedent: nil, Consequent: prop("gnt1", 1, 0), Window: 2},
	}
}

// TestSessionMatchesFresh is the core equivalence contract: the incremental
// path must produce the same verdict, method, depth, and byte-identical
// canonical counterexample as a fresh session per check, for every assertion,
// regardless of the order the session saw them in.
func TestSessionMatchesFresh(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	suite := arbiterSuite()

	fresh := NewWithOptions(d, satOnlyOptions())
	var want []*Result
	for _, a := range suite {
		r, err := fresh.Check(a)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}

	// Two session orders: as-is and reversed, both must match fresh.
	for _, reversed := range []bool{false, true} {
		sess := NewWithOptions(d, satOnlyOptions()).NewSession()
		idx := make([]int, len(suite))
		for i := range idx {
			if reversed {
				idx[i] = len(suite) - 1 - i
			} else {
				idx[i] = i
			}
		}
		for _, i := range idx {
			got, err := sess.Check(suite[i])
			if err != nil {
				t.Fatal(err)
			}
			w := want[i]
			if got.Status != w.Status || got.Method != w.Method || got.Depth != w.Depth {
				t.Errorf("reversed=%v assertion %d: session=(%v,%s,%d) fresh=(%v,%s,%d)",
					reversed, i, got.Status, got.Method, got.Depth, w.Status, w.Method, w.Depth)
			}
			if !reflect.DeepEqual(got.Ctx, w.Ctx) {
				t.Errorf("reversed=%v assertion %d: counterexamples differ\nsession: %v\nfresh:   %v",
					reversed, i, got.Ctx, w.Ctx)
			}
			if got.Status == StatusFalsified {
				verifyCtx(t, d, suite[i], got.Ctx)
			}
		}
	}
}

// TestSessionReusesSolverState checks the Session actually is incremental:
// repeated checks reuse the persistent states (Reuses counter) and the
// second identical check encodes no new solver variables.
func TestSessionReusesSolverState(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	sess := NewWithOptions(d, satOnlyOptions()).NewSession()
	a := arbiterSuite()[0]
	if _, err := sess.Check(a); err != nil {
		t.Fatal(err)
	}
	if sess.bmc == nil {
		t.Fatal("no persistent bmc state after a SAT check")
	}
	varsAfterFirst := sess.bmc.s.NumVars()
	if _, err := sess.Check(a); err != nil {
		t.Fatal(err)
	}
	if got := sess.bmc.s.NumVars(); got != varsAfterFirst {
		t.Errorf("second identical check allocated variables: %d -> %d", varsAfterFirst, got)
	}
	if sess.Reuses == 0 {
		t.Error("Reuses = 0 after two checks on one session")
	}
}

// TestSessionActivationRetired checks the activation-literal protocol: after
// a proved (induction) check is retired, later falsifiable checks are not
// contaminated by the retired hypothesis clauses.
func TestSessionActivationRetired(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	sess := NewWithOptions(d, satOnlyOptions()).NewSession()
	suite := arbiterSuite()
	proved, falsified := suite[2], suite[0]

	r, err := sess.Check(proved)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusProved {
		t.Fatalf("proved assertion: got %v (%s)", r.Status, r.Method)
	}
	if sess.Activations == 0 {
		t.Error("induction proof consumed no activation literal")
	}
	r, err = sess.Check(falsified)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusFalsified {
		t.Fatalf("falsifiable assertion after retirement: got %v (%s)", r.Status, r.Method)
	}
	verifyCtx(t, d, falsified, r.Ctx)
}

// TestCanonicalCtxIndependentOfCoI checks the canonical counterexample does
// not depend on whether cone-of-influence reduction is on: the lex-min model
// over the cone bits is a property of the assertion, not the encoding.
func TestCanonicalCtxIndependentOfCoI(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	for _, a := range arbiterSuite() {
		withCoI := satOnlyOptions()
		withoutCoI := satOnlyOptions()
		withoutCoI.CoI = false
		r1, err := NewWithOptions(d, withCoI).Check(a)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := NewWithOptions(d, withoutCoI).Check(a)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Status != r2.Status || !reflect.DeepEqual(r1.Ctx, r2.Ctx) {
			t.Errorf("%s: CoI on=(%v %v) off=(%v %v)", a, r1.Status, r1.Ctx, r2.Status, r2.Ctx)
		}
	}
}

// TestTwoChecksOneReachabilityPass is the satellite regression guard: the
// explicit-state fixpoint is computed once per Checker no matter how many
// checks (or sessions) consume it.
func TestTwoChecksOneReachabilityPass(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := New(d) // explicit engine eligible on the arbiter
	sess := c.NewSession()
	for _, a := range arbiterSuite()[:2] {
		if _, err := c.Check(a); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Check(a); err != nil {
			t.Fatal(err)
		}
	}
	if c.ReachBuilds != 1 {
		t.Errorf("ReachBuilds = %d after four explicit checks, want 1", c.ReachBuilds)
	}
}

// sameResult reports whether two results agree on status, method, depth and
// counterexample bytes.
func sameResult(a, b *Result) bool {
	return a.Status == b.Status && a.Method == b.Method && a.Depth == b.Depth && reflect.DeepEqual(a.Ctx, b.Ctx)
}

// TestSessionRebuildsAfterEngineFault reaches dispatch's rebuild path: a
// session whose persistent bmc or ind state is corrupted panics mid-check,
// guard drops the states, and the check is decided again on rebuilt ones —
// with exactly the fresh-session result. The next check runs on the rebuilt
// states and matches too.
func TestSessionRebuildsAfterEngineFault(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	suite := arbiterSuite()
	fresh := func(a *assertion.Assertion) *Result {
		r, err := NewWithOptions(d, satOnlyOptions()).Check(a)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	falsified, proved := suite[1], suite[3]
	for _, tc := range []struct {
		name    string
		corrupt func(*Session) *satState
		a, next *assertion.Assertion
	}{
		// The BMC ladder trips over the corrupted bmc state on a falsifiable
		// assertion; the next check is a proof that needs both states.
		{"bmc", func(s *Session) *satState { s.bmc.u = nil; return s.bmc }, falsified, proved},
		// The BMC ladder clears every depth of a provable assertion, then
		// induction trips over the corrupted ind state.
		{"ind", func(s *Session) *satState { s.ind.u = nil; return s.ind }, proved, falsified},
	} {
		sess := NewWithOptions(d, satOnlyOptions()).NewSession()
		if _, err := sess.Check(proved); err != nil { // builds both states
			t.Fatal(err)
		}
		bad := tc.corrupt(sess)
		got, err := sess.Check(tc.a)
		if err != nil {
			t.Fatalf("%s: check on a corrupted session: %v", tc.name, err)
		}
		if want := fresh(tc.a); !sameResult(got, want) {
			t.Errorf("%s: after rebuild got (%v,%s,%d,%v), fresh (%v,%s,%d,%v)", tc.name,
				got.Status, got.Method, got.Depth, got.Ctx, want.Status, want.Method, want.Depth, want.Ctx)
		}
		if sess.bmc == bad || sess.ind == bad {
			t.Fatalf("%s: the corrupted state survived the check", tc.name)
		}
		got, err = sess.Check(tc.next)
		if err != nil {
			t.Fatalf("%s: next check: %v", tc.name, err)
		}
		if want := fresh(tc.next); !sameResult(got, want) {
			t.Errorf("%s: next check got (%v,%s,%d), fresh (%v,%s,%d)", tc.name,
				got.Status, got.Method, got.Depth, want.Status, want.Method, want.Depth)
		}
	}
}

// TestSessionSecondFaultIsEngineError: a fault that survives the rebuild
// (here every encoding of the design panics) is returned as
// ErrEngineInternal after exactly one retry, for core's recover barrier to
// report.
func TestSessionSecondFaultIsEngineError(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	for _, r := range d.Registers() {
		d.Next[r] = nil // cnf panics on the missing next-state expression
	}
	sess := NewWithOptions(d, satOnlyOptions()).NewSession()
	res, err := sess.Check(arbiterSuite()[1])
	if !errors.Is(err, ErrEngineInternal) || res != nil {
		t.Fatalf("got (%v, %v), want ErrEngineInternal", res, err)
	}
}
