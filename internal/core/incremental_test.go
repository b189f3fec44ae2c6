package core

import (
	"context"
	"testing"

	"goldmine/internal/designs"
	"goldmine/internal/mc"
	"goldmine/internal/sim"
)

// minePooledOrFresh mines every output of a benchmark and returns the
// canonical artifact string. fresh substitutes the model checker itself
// through SetChecker, so every check runs on a throwaway session (the
// reference) instead of the engine's session pool.
func minePooledOrFresh(t *testing.T, name string, fresh, satOnly bool, workers, maxIter int) string {
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
	cfg.MaxIterations = maxIter
	if satOnly {
		// Disqualify the explicit engine so the SAT paths (the ones sessions
		// change) decide every check.
		cfg.MC.MaxStateBits = 0
	}
	eng, err := NewEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fresh {
		eng.SetChecker(mc.NewWithOptions(d, cfg.MC))
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
// session pool: pooled sessions and a fresh session per check produce
// byte-identical mining artifacts (verdicts, counterexample stimuli,
// iteration stats) on every bundled design, sequentially and in parallel.
// Two rows force the SAT engines on, so the persistent solver states decide
// every check.
func TestIncrementalMatchesFresh(t *testing.T) {
	type row struct {
		design  string
		satOnly bool
	}
	var rows []row
	for _, b := range designs.All() {
		rows = append(rows, row{b.Name, false})
	}
	rows = append(rows, row{"arbiter2", true}, row{"fetch", true})
	for _, r := range rows {
		for _, workers := range []int{1, 4} {
			fresh := minePooledOrFresh(t, r.design, true, r.satOnly, workers, 8)
			pooled := minePooledOrFresh(t, r.design, false, r.satOnly, workers, 8)
			if fresh != pooled {
				t.Errorf("%s (satOnly=%v j=%d): pooled and fresh artifacts differ:\nfresh:\n%s\npooled:\n%s",
					r.design, r.satOnly, workers, fresh, pooled)
			}
		}
	}
}
