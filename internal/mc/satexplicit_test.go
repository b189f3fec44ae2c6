package mc

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"goldmine/internal/assertion"
	"goldmine/internal/rtl"
)

// goldenSuites loads the mined assertion suite (MCAssertionSuite(name, 4))
// that testdata/explicit_golden.json records for every design the explicit
// engine accepts.
func goldenSuites(t *testing.T) map[string][]*assertion.Assertion {
	t.Helper()
	raw, err := os.ReadFile("testdata/explicit_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var g struct {
		Designs []struct {
			Design string `json:"design"`
			Checks []struct {
				Assertion *assertion.Assertion `json:"assertion"`
			} `json:"checks"`
		} `json:"designs"`
	}
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	out := map[string][]*assertion.Assertion{}
	for _, d := range g.Designs {
		for _, c := range d.Checks {
			out[d.Design] = append(out[d.Design], c.Assertion)
		}
	}
	return out
}

// explicitRefWork caps one reference enumeration at 2^22 window simulations
// (the dispatcher's MaxExplicitBits), a deterministic work budget. Wide
// windows on fetch and pipeline need up to 2^46; an assertion the explicit
// engine cannot decide within the cap has no exact reference.
const explicitRefWork = 1 << 22

// explicitRefMinCompared is how many golden-suite assertions (of 269) the
// capped explicit engine decides: all of them except 20 on fetch and 16 on
// pipeline.
const explicitRefMinCompared = 233

// explicitRef returns a checker that runs the exact explicit-state engine
// directly, whatever the dispatcher's work gate would pick, with its
// reachable state set already built outside the per-check cap.
func explicitRef(t *testing.T, d *rtl.Design) *Checker {
	t.Helper()
	opts := DefaultOptions()
	opts.MaxWork = explicitRefWork
	c := NewWithOptions(d, opts)
	if !c.ExplicitOK {
		t.Fatalf("%s: explicit engine does not accept the design", d.Name)
	}
	if _, err := c.ReachableStates(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSATMatchesExplicitEngine is the independent reference for the SAT
// ladder: on every explicit-eligible bundled design, each assertion of the
// golden suite is checked on a fresh session with SAT forced and compared
// with the exact explicit engine. SAT may never falsify what explicit
// proves; every SAT counterexample must be an explicit falsification too and
// replay on the interpreter; every explicit falsification within the BMC
// bound must be found by BMC, at the same depth; and a k-induction proof
// must be an explicit proof. Assertions the capped explicit engine cannot
// decide are only replay-checked; how many it decides is pinned.
func TestSATMatchesExplicitEngine(t *testing.T) {
	suites := goldenSuites(t)
	opts := satOnlyOptions()
	compared := 0
	for name, suite := range suites {
		d := benchDesign(t, name)
		ref := explicitRef(t, d)
		skipped := 0
		satc := NewWithOptions(d, opts)
		for _, a := range suite {
			got, err := satc.Check(a)
			if err != nil {
				t.Fatalf("%s: SAT %s: %v", name, a, err)
			}
			if got.Status == StatusFalsified {
				verifyCtx(t, d, a, got.Ctx)
			}
			ex, err := ref.checkExplicit(ref.newBudget(context.Background()), a)
			if IsBudget(err) {
				skipped++ // beyond the reference cap
				continue
			}
			if err != nil {
				t.Fatalf("%s: explicit %s: %v", name, a, err)
			}
			compared++
			switch {
			case ex.Status == StatusProved && got.Status == StatusFalsified:
				t.Errorf("%s: %s: explicit proves it, SAT falsifies it (%s, depth %d)", name, a, got.Method, got.Depth)
			case got.Status == StatusFalsified && ex.Status != StatusFalsified:
				t.Errorf("%s: %s: SAT falsifies it, explicit says %v", name, a, ex.Status)
			case ex.Status == StatusFalsified && len(ex.Ctx) <= opts.MaxBMCDepth &&
				(got.Status != StatusFalsified || len(got.Ctx) != len(ex.Ctx)):
				t.Errorf("%s: %s: explicit falsifies it at depth %d, SAT says %v via %s at depth %d",
					name, a, len(ex.Ctx), got.Status, got.Method, len(got.Ctx))
			case got.Status == StatusProved && ex.Status != StatusProved:
				t.Errorf("%s: %s: SAT proves it (%s), explicit says %v", name, a, got.Method, ex.Status)
			}
		}
		if skipped > 0 {
			t.Logf("%s: %d of %d assertions beyond the explicit reference cap", name, skipped, len(suite))
		}
	}
	t.Logf("explicit reference decided %d golden assertions", compared)
	if compared < explicitRefMinCompared {
		t.Errorf("explicit reference decided %d golden assertions, want at least %d", compared, explicitRefMinCompared)
	}
}
