package experiments

import (
	"testing"

	"goldmine/internal/designs"
)

func TestCoverBenchDesign(t *testing.T) {
	b, err := designs.Get("decode")
	if err != nil {
		t.Fatal(err)
	}
	row, err := coverBenchDesign(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if row.Universe == 0 {
		t.Fatal("empty hole universe")
	}
	for name, curve := range map[string][]CoverCurvePoint{
		"random": row.Random, "directed": row.Directed, "cex": row.Cex,
	} {
		if len(curve) == 0 {
			t.Errorf("%s curve empty", name)
			continue
		}
		last := curve[len(curve)-1]
		if last.Cycles > coverBenchBudget {
			t.Errorf("%s curve exceeds the budget: %d cycles", name, last.Cycles)
		}
		for i := 1; i < len(curve); i++ {
			if curve[i].Open > curve[i-1].Open {
				t.Errorf("%s curve open-hole count increased at %d", name, i)
			}
		}
	}
	if !row.DirectedNotWorse {
		t.Errorf("directed worse than random on decode: %d vs %d open", row.DirectedOpen, row.RandomOpen)
	}
	if len(row.Attempts) == 0 || len(row.Methods) == 0 {
		t.Error("no per-hole accounting")
	}
	// decode's legacy baseline is pinned: 44 reach solves, 2 holes open
	// (BENCH_cover.json; the deleted loop reproduced both at 1 and 2 workers).
	legacy := frozenLegacy["decode"]
	if legacy != (legacyRow{solves: 44, open: 2}) {
		t.Fatalf("frozen decode baseline = %+v, want 44 solves / 2 open", legacy)
	}
	if !row.DirectedNotWorseThanLegacy {
		t.Errorf("adaptive worse than legacy on decode: %d vs %d open", row.DirectedOpen, legacy.open)
	}
	if !row.ReachQueriesReduced {
		t.Errorf("reach queries not reduced: adaptive %d vs legacy %d solves",
			row.DirectedReachSolves, legacy.solves)
	}
	for name, ms := range map[string]float64{
		"random": row.RandomWallMS, "directed": row.DirectedWallMS, "cex": row.CexWallMS,
	} {
		if ms <= 0 {
			t.Errorf("%s wall-clock not recorded: %v ms", name, ms)
		}
	}
}

// TestFrozenLegacyCoversEveryDesign: the reach_queries_reduced and
// directed_never_worse_than_legacy gates need a frozen legacy row for every
// bundled design.
func TestFrozenLegacyCoversEveryDesign(t *testing.T) {
	names := designs.Names()
	if len(frozenLegacy) != len(names) {
		t.Errorf("frozenLegacy has %d rows for %d designs", len(frozenLegacy), len(names))
	}
	for _, name := range names {
		if _, ok := frozenLegacy[name]; !ok {
			t.Errorf("no frozen legacy row for %s", name)
		}
	}
}
