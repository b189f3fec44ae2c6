// Arbiter closure: the paper's Section 6 walk-through. Mines the two-port
// round-robin arbiter starting from the directed test of Figure 7, printing
// each refinement iteration: the candidate assertions checked, which failed
// (with their counterexamples), which were proven, and the coverage growth —
// ending with the final decision tree that certifies coverage closure for
// gnt0.
package main

import (
	"context"

	"fmt"
	"log"

	"goldmine/internal/core"
	"goldmine/internal/coverage"
	"goldmine/internal/designs"
	"goldmine/internal/sim"
)

func main() {
	bench, err := designs.Get("arbiter2")
	if err != nil {
		log.Fatal(err)
	}
	design, err := bench.Design()
	if err != nil {
		log.Fatal(err)
	}

	cfg := core.DefaultConfig()
	cfg.Window = bench.Window
	engine, err := core.NewEngine(design, cfg)
	if err != nil {
		log.Fatal(err)
	}

	seed := bench.Directed()
	fmt.Printf("design: %s, mining window %d, directed seed of %d cycles\n\n",
		design.Name, cfg.Window, len(seed))

	res, err := engine.MineOutputByName(context.Background(), "gnt0", 0, seed)
	if err != nil {
		log.Fatal(err)
	}

	// Iteration-by-iteration narrative, like the paper's Figures 8-11.
	for _, st := range res.Iterations {
		fmt.Printf("iteration %d: %d candidates, %d proved, %d counterexamples, %d rows, tree %d/%d nodes/leaves, input-space %.2f%%\n",
			st.Iteration, st.Candidates, st.NewProved, st.NewCtx, st.Rows,
			st.TreeNodes, st.TreeLeaves, 100*st.InputSpaceCoverage)
	}

	fmt.Println("\nfalsified candidates and their counterexamples:")
	for i, rec := range res.Failed {
		fmt.Printf("  [it%d] %s\n", rec.Iteration, rec.Assertion)
		if i < len(res.Ctx) {
			fmt.Printf("        ctx: %d cycles\n", len(res.Ctx[i]))
		}
	}

	fmt.Println("\nproven assertions (the paper's A2, A3, A6-A9, A11, A12 analogues):")
	for _, rec := range res.Proved {
		fmt.Printf("  [it%d, %s] %s\n", rec.Iteration, rec.Method, rec.Assertion)
	}

	fmt.Printf("\nfinal decision tree (converged=%v):\n%s\n", res.Converged, res.Tree)

	// Coverage of the enhanced test suite, as in Figure 12.
	suite := []sim.Stimulus{seed}
	suite = append(suite, res.Ctx...)
	col := coverage.New(design)
	if err := col.RunSuiteCompiled(suite); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("enhanced suite coverage: %s\n", col.Report())
	fmt.Printf("input-space coverage (sum of 1/2^depth): %.2f%%\n", 100*res.InputSpaceCoverage())
}
