// ITC sweep: compares random stimulus against GoldMine-enhanced stimulus on
// the ITC'99-style benchmark designs (a lighter-budget version of Figure 16),
// printing line / condition / toggle / FSM / branch coverage side by side.
package main

import (
	"context"
	"fmt"
	"log"

	"goldmine/internal/core"
	"goldmine/internal/coverage"
	"goldmine/internal/designs"
	"goldmine/internal/serve"
	"goldmine/internal/sim"
	"goldmine/internal/stimgen"
)

func main() {
	benches := []string{"b01", "b02", "b09", "b12", "b17", "b18"}
	cycles := map[string]int{
		"b01": 85, "b02": 50, "b09": 2000, "b12": 2000, "b17": 2000, "b18": 2000,
	}
	fmt.Printf("%-6s %7s | %-37s | %-37s\n", "module", "cycles", "random (ln/cond/tgl/fsm/br)", "goldmine (ln/cond/tgl/fsm/br)")
	for _, name := range benches {
		b, err := designs.Get(name)
		if err != nil {
			log.Fatal(err)
		}
		// Mine as goldmine resolves a request: the benchmark's window, at
		// most 8 refinement iterations, the example's own seed stimulus.
		r, err := (&serve.Request{Design: name, Seed: "none", MaxIter: 8}).Resolve()
		if err != nil {
			log.Fatal(err)
		}
		d := r.Design
		n := cycles[name]
		rnd := stimgen.Random(d, n, 3, 2)

		rndCol := coverage.New(d)
		if err := rndCol.RunSuiteCompiled([]sim.Stimulus{rnd}); err != nil {
			log.Fatal(err)
		}

		eng, err := core.NewEngine(d, r.Config)
		if err != nil {
			log.Fatal(err)
		}
		var targets []core.Target
		for _, out := range b.KeyOutputs {
			sig := d.Signal(out)
			for bit := 0; bit < sig.Width; bit++ {
				targets = append(targets, core.Target{Output: sig, Bit: bit})
			}
		}
		seed := stimgen.Random(d, min(n, 128), 3, 2)
		res, err := eng.MineTargets(context.Background(), targets, seed)
		if err != nil {
			log.Fatal(err)
		}
		suite := []sim.Stimulus{rnd}
		for _, out := range res.Outputs {
			suite = append(suite, out.Ctx...)
		}
		gmCol := coverage.New(d)
		if err := gmCol.RunSuiteCompiled(suite); err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%-6s %7d | %-37s | %-37s\n", name, n, short(rndCol.Report()), short(gmCol.Report()))
	}
}

func short(r coverage.Report) string {
	return fmt.Sprintf("%s/%s/%s/%s/%s",
		trim(r.Line), trim(r.Cond), trim(r.Toggle), trim(r.FSM), trim(r.Branch))
}

func trim(m coverage.Metric) string {
	if !m.Defined() {
		return "X"
	}
	return fmt.Sprintf("%.0f", m.Pct())
}
