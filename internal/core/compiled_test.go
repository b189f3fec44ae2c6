package core

import (
	"context"
	"testing"

	"goldmine/internal/designs"
	"goldmine/internal/sim"
	"goldmine/internal/stimgen"
)

// TestCompiledMiningCanonical checks the batch engine's traces against the
// interpreter at the point mining depends on them: every counterexample
// of a falsified candidate, replayed on the sim.Simulator interpreter,
// violates its assertion in its last window. The designs span arbiter state,
// a wide datapath (fetch) and a 21-flop serial converter (b09), sequentially
// and in parallel (forked engines share one compiled program), and the
// canonical artifacts must not depend on the worker count.
func TestCompiledMiningCanonical(t *testing.T) {
	cases := []struct {
		design  string
		maxIter int
	}{
		{"arbiter4", 6},
		{"fetch", 3},
		{"b09", 4},
	}
	for _, tc := range cases {
		b, err := designs.Get(tc.design)
		if err != nil {
			t.Fatal(err)
		}
		d, err := b.Design()
		if err != nil {
			t.Fatal(err)
		}
		var canon []string
		for _, workers := range []int{1, 4} {
			cfg := DefaultConfig()
			cfg.Window = b.Window
			cfg.Workers = workers
			cfg.MaxIterations = tc.maxIter
			eng, err := NewEngine(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var seed sim.Stimulus
			if b.Directed != nil {
				seed = b.Directed()
			}
			res, err := eng.MineAll(context.Background(), seed)
			if err != nil {
				t.Fatal(err)
			}
			canon = append(canon, res.Canonical())
			failed := 0
			for _, o := range res.Outputs {
				if len(o.Failed) != len(o.Ctx) {
					t.Fatalf("%s %s[%d]: %d failed records, %d counterexamples", tc.design, o.Output, o.Bit, len(o.Failed), len(o.Ctx))
				}
				for i, rec := range o.Failed {
					stim := o.Ctx[i]
					tr, err := sim.Simulate(d, stim)
					if err != nil {
						t.Fatal(err)
					}
					if !violatesAt(tr, rec.Assertion, len(stim)-(rec.Assertion.Consequent.Offset+1)) {
						t.Errorf("%s -j%d: ctx %d of %s[%d] does not violate %s on the interpreter",
							tc.design, workers, i, o.Output, o.Bit, rec.Assertion)
					}
					failed++
				}
			}
			if failed == 0 {
				t.Errorf("%s -j%d: no falsified candidate to replay", tc.design, workers)
			}
		}
		if canon[0] != canon[1] {
			t.Errorf("%s: -j1 and -j4 artifacts differ:\n-j1:\n%s\n-j4:\n%s", tc.design, canon[0], canon[1])
		}
	}
}

// TestCompiledSimulateMatchesInterpreter: the engine's simulate (lane 0 of
// the batch machine) returns the interpreter's trace, cycle for cycle.
func TestCompiledSimulateMatchesInterpreter(t *testing.T) {
	b, err := designs.Get("b09")
	if err != nil {
		t.Fatal(err)
	}
	d, err := b.Design()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Window = b.Window
	eng, err := NewEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stim := stimgen.Random(d, 300, 9, 2)
	got, err := eng.simulate(context.Background(), stim)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Simulate(d, stim)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles() != want.Cycles() {
		t.Fatalf("cycle count %d vs %d", got.Cycles(), want.Cycles())
	}
	for c := range want.Values {
		for j := range want.Values[c] {
			if got.Values[c][j] != want.Values[c][j] {
				t.Fatalf("cycle %d col %d (%s): compiled %d interpreter %d",
					c, j, want.Signals[j].Name, got.Values[c][j], want.Values[c][j])
			}
		}
	}
}
