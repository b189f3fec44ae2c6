package core

import (
	"context"
	"strings"
	"testing"

	"goldmine/internal/designs"
	"goldmine/internal/sim"
	"goldmine/internal/stimgen"
)

// mineCompiled mines a benchmark with the compiled simulator toggled and
// returns the canonical artifact string.
func mineCompiled(t *testing.T, name string, compiled bool, workers, maxIter int) string {
	t.Helper()
	b, err := designs.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := b.Design()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Window = b.Window
	cfg.Workers = workers
	cfg.CompiledSim = compiled
	if maxIter > 0 {
		cfg.MaxIterations = maxIter
	}
	eng, err := NewEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if compiled && eng.compiled == nil {
		t.Fatal("CompiledSim set but engine has no compiled-program holder")
	}
	if !compiled && eng.compiled != nil {
		t.Fatal("CompiledSim unset but engine holds a compiled program")
	}
	var seed sim.Stimulus
	if b.Directed != nil {
		seed = b.Directed()
	}
	res, err := eng.MineAll(context.Background(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return res.Canonical()
}

// TestCompiledMiningCanonical is the compiled-simulator determinism contract:
// the mining artifacts must be byte-identical whether seed and counterexample
// traces come from lane 0 of the batch machine or the tree-walking
// interpreter, sequentially and in parallel (forked engines share one
// compiled program).
func TestCompiledMiningCanonical(t *testing.T) {
	cases := []struct {
		design  string
		maxIter int
	}{
		{"arbiter2", 0},
		{"arbiter4", 6},
		{"fetch", 3},
		{"b01", 4},
	}
	for _, tc := range cases {
		interp := mineCompiled(t, tc.design, false, 1, tc.maxIter)
		for _, workers := range []int{1, 4} {
			comp := mineCompiled(t, tc.design, true, workers, tc.maxIter)
			if comp != interp {
				t.Errorf("%s -j%d: compiled and interpreter artifacts differ:\ninterpreter:\n%s\ncompiled:\n%s",
					tc.design, workers, interp, comp)
			}
		}
		if !strings.Contains(interp, "output") {
			t.Errorf("%s: canonical form looks empty:\n%s", tc.design, interp)
		}
	}
}

// TestCompiledSimulateMatchesInterpreter ensures a compile failure silently falls back to the
// interpreter rather than corrupting mining: a nil compiled holder (the
// CompiledSim=false path) and the compiled path must both serve Simulate.
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
	want, err := eng.sim.Run(stim)
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
