package core

import (
	"context"

	"testing"

	"goldmine/internal/designs"
	"goldmine/internal/sim"
)

// mineIncr mines a benchmark with the incremental session pool on or off and
// returns the canonical artifact string.
func mineIncr(t *testing.T, name string, incremental, satOnly bool, workers, maxIter int) string {
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
	cfg.Incremental = incremental
	if satOnly {
		// Disqualify the explicit engine so the SAT paths (the ones sessions
		// change) decide every check.
		cfg.MC.MaxStateBits = 0
	}
	if maxIter > 0 {
		cfg.MaxIterations = maxIter
	}
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
	return res.Canonical()
}

// TestIncrementalMatchesFresh is the engine-level equivalence contract of the
// incremental backend: session-pooled and fresh-session checking produce
// byte-identical mining artifacts (verdicts, counterexample stimuli,
// iteration stats), with the SAT engines forced on so the persistent solver
// states actually decide the checks.
func TestIncrementalMatchesFresh(t *testing.T) {
	cases := []struct {
		design  string
		satOnly bool
		workers int
		maxIter int
	}{
		{"arbiter2", true, 1, 0},
		{"arbiter2", false, 1, 0},
		{"arbiter2", true, 4, 0},
		{"fetch", true, 1, 3},
	}
	for _, tc := range cases {
		fresh := mineIncr(t, tc.design, false, tc.satOnly, tc.workers, tc.maxIter)
		incr := mineIncr(t, tc.design, true, tc.satOnly, tc.workers, tc.maxIter)
		if fresh != incr {
			t.Errorf("%s (satOnly=%v j=%d): incremental and fresh artifacts differ:\nfresh:\n%s\nincremental:\n%s",
				tc.design, tc.satOnly, tc.workers, fresh, incr)
		}
	}
}
