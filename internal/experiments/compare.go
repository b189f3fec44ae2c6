package experiments

import (
	"fmt"

	"goldmine/internal/coverage"
	"goldmine/internal/designs"
	"goldmine/internal/sim"
	"goldmine/internal/stimgen"
)

func init() {
	register("fig15", "GoldMine tests raise condition coverage on an already high-coverage block", Fig15)
	register("table3", "directed-test vs GoldMine coverage on the Rigel-like modules", Table3)
	register("fig16", "random vs GoldMine coverage on the ITC-style benchmarks", Fig16)
}

// Fig15 reproduces Figure 15: wb_stage with 50 random cycles already reaches
// 100% line/branch coverage; GoldMine counterexample tests push condition
// coverage higher.
func Fig15() (*Table, error) {
	b, d, err := designs.Load("wb_stage", "")
	if err != nil {
		return nil, err
	}
	seed := stimgen.Random(d, 50, 2024, 1)

	baseRep, err := suiteCoverage(d, []sim.Stimulus{seed})
	if err != nil {
		return nil, err
	}

	mr, err := mineModule(b, seed, 0)
	if err != nil {
		return nil, err
	}
	fullRep, err := suiteCoverage(d, mr.suiteUpTo(mr.maxIteration()+1))
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "Fig15",
		Title:  "Increasing Coverage on High Coverage Block (wb_stage)",
		Header: []string{"Test", "line", "branch", "cond"},
		Rows: [][]string{
			{"50 Random Cycles",
				fmt.Sprintf("%.2f", baseRep.Line.Pct()),
				fmt.Sprintf("%.2f", baseRep.Branch.Pct()),
				fmt.Sprintf("%.2f", baseRep.Cond.Pct())},
			{"50 Random Cycles + GoldMine",
				fmt.Sprintf("%.2f", fullRep.Line.Pct()),
				fmt.Sprintf("%.2f", fullRep.Branch.Pct()),
				fmt.Sprintf("%.2f", fullRep.Cond.Pct())},
		},
	}
	t.Notes = append(t.Notes,
		"paper (Fig.15): line 100/100, branch 100/100, cond 93.02 -> 95.35",
		"shape check: line/branch stay saturated, condition coverage does not decrease and typically rises")
	return t, nil
}

// Table3 reproduces Table 3: long directed/random regression vs the GoldMine
// suite on the Rigel-like modules. The paper runs 1.5M directed cycles; we
// scale the budget down (documented) — the shape is the point: GoldMine
// reaches equal or better coverage with orders of magnitude fewer cycles.
func Table3() (*Table, error) {
	const directedCycles = 30000
	mods := []string{"wb_stage", "fetch", "decode"}
	t := &Table{
		ID:    "Table3",
		Title: "Coverage Comparison Between Directed Tests and GoldMine Tests",
		Header: []string{"Module",
			"DirCycles", "DirLine", "DirCond", "DirToggle", "DirBranch",
			"GMCycles", "GMLine", "GMCond", "GMToggle", "GMBranch"},
	}
	for _, name := range mods {
		b, d, err := designs.Load(name, "")
		if err != nil {
			return nil, err
		}
		// The paper's directed regression: a hand-written happy-path test
		// repeated to fill the cycle budget (repetition adds cycles, not
		// coverage — exactly the stagnation the paper criticizes).
		one := b.Directed()
		directed := stimgen.Repeat(one, directedCycles/len(one))
		dirRep, err := suiteCoverage(d, []sim.Stimulus{directed})
		if err != nil {
			return nil, err
		}

		// GoldMine: the directed test as seed plus counterexample refinement.
		mr, err := mineModule(b, one, 24)
		if err != nil {
			return nil, err
		}
		suite := mr.suiteUpTo(mr.maxIteration() + 1)
		gmRep, err := suiteCoverage(d, suite)
		if err != nil {
			return nil, err
		}

		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", directedCycles),
			fmt.Sprintf("%.2f", dirRep.Line.Pct()),
			fmt.Sprintf("%.2f", dirRep.Cond.Pct()),
			fmt.Sprintf("%.2f", dirRep.Toggle.Pct()),
			fmt.Sprintf("%.2f", dirRep.Branch.Pct()),
			fmt.Sprintf("%d", suiteCycles(suite)),
			fmt.Sprintf("%.2f", gmRep.Line.Pct()),
			fmt.Sprintf("%.2f", gmRep.Cond.Pct()),
			fmt.Sprintf("%.2f", gmRep.Toggle.Pct()),
			fmt.Sprintf("%.2f", gmRep.Branch.Pct()),
		})
	}
	t.Notes = append(t.Notes,
		"paper (Table 3) budget is 1.5M directed cycles; scaled to 30k here (same shape)",
		"shape check: GoldMine coverage >= directed coverage with far fewer cycles")
	return t, nil
}

// Fig16 reproduces Figure 16: random vs GoldMine coverage on the ITC-style
// benchmarks at the paper's cycle budgets.
func Fig16() (*Table, error) {
	rows := []struct {
		bench  string
		cycles int
	}{
		{"b01", 85},
		{"b02", 50},
		{"b09", 28000},
		{"b12", 12000},
		{"b17", 23000},
		{"b18", 10000},
	}
	t := &Table{
		ID:    "Fig16",
		Title: "Coverage Comparison Between Random Tests and GoldMine Tests (ITC-style)",
		Header: []string{"Module", "Cycles",
			"RndLine", "RndCond", "RndToggle", "RndFSM", "RndBranch",
			"GMLine", "GMCond", "GMToggle", "GMFSM", "GMBranch"},
	}
	for _, rc := range rows {
		b, d, err := designs.Load(rc.bench, "")
		if err != nil {
			return nil, err
		}
		rnd := stimgen.Random(d, rc.cycles, 3, 2)
		rndRep, err := suiteCoverage(d, []sim.Stimulus{rnd})
		if err != nil {
			return nil, err
		}

		// GoldMine: the random test plus counterexample refinement on the
		// key outputs (bounded iterations for the larger designs).
		maxIter := 16
		if rc.cycles > 1000 {
			maxIter = 8
		}
		seedLen := rc.cycles
		if seedLen > 256 {
			seedLen = 256
		}
		mr, err := mineModule(b, stimgen.Random(d, seedLen, 3, 2), maxIter)
		if err != nil {
			return nil, err
		}
		suite := append([]sim.Stimulus{rnd}, mr.suiteUpTo(mr.maxIteration()+1)...)
		gmRep, err := suiteCoverage(d, suite)
		if err != nil {
			return nil, err
		}

		fmtm := func(m coverage.Metric) string {
			if !m.Defined() {
				return "X"
			}
			return fmt.Sprintf("%.2f", m.Pct())
		}
		t.Rows = append(t.Rows, []string{
			rc.bench, fmt.Sprintf("%d", rc.cycles),
			fmtm(rndRep.Line), fmtm(rndRep.Cond), fmtm(rndRep.Toggle), fmtm(rndRep.FSM), fmtm(rndRep.Branch),
			fmtm(gmRep.Line), fmtm(gmRep.Cond), fmtm(gmRep.Toggle), fmtm(gmRep.FSM), fmtm(gmRep.Branch),
		})
	}
	t.Notes = append(t.Notes,
		"paper (Fig.16): GoldMine matches or beats random on every metric; large designs stay below 100% for both",
		"b12/b17/b18 are reduced-scale substitutes (see DESIGN.md)")
	return t, nil
}
