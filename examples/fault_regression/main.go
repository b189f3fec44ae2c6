// Fault regression: the Section 7.4 flow. Mines an assertion suite on the
// correct fetch-stage design, then injects stuck-at faults on the paper's
// signals (stall_in, branch_mispredict, icache_rdvl_i) and reports how many
// assertions detect each fault — using the mined suite as a regression
// vehicle, exactly as Table 2 does.
package main

import (
	"context"
	"fmt"
	"log"

	"goldmine/internal/core"
	"goldmine/internal/designs"
	"goldmine/internal/mc"
	"goldmine/internal/monitor"
	"goldmine/internal/mutate"
	"goldmine/internal/sim"
	"goldmine/internal/simc"
	"goldmine/internal/stimgen"
)

func main() {
	bench, err := designs.Get("fetch")
	if err != nil {
		log.Fatal(err)
	}
	design, err := bench.Design()
	if err != nil {
		log.Fatal(err)
	}

	cfg := core.DefaultConfig()
	cfg.Window = bench.Window
	cfg.MaxIterations = 16
	engine, err := core.NewEngine(design, cfg)
	if err != nil {
		log.Fatal(err)
	}

	seed := stimgen.Random(design, 64, 5, 2)
	fmt.Println("mining regression assertions for fetch.valid ...")
	res, err := engine.MineOutputByName(context.Background(), "valid", 0, seed)
	if err != nil {
		log.Fatal(err)
	}
	asserts := res.Assertions()
	fmt.Printf("mined %d proven assertions (converged=%v)\n\n", len(asserts), res.Converged)

	faults := []mutate.Fault{
		{Signal: "stall_in", StuckAt1: false},
		{Signal: "stall_in", StuckAt1: true},
		{Signal: "branch_mispredict", StuckAt1: false},
		{Signal: "branch_mispredict", StuckAt1: true},
		{Signal: "icache_rdvl_i", StuckAt1: false},
		{Signal: "icache_rdvl_i", StuckAt1: true},
	}
	opts := mc.DefaultOptions()
	opts.MaxBMCDepth = 10
	opts.MaxInduction = 6
	dets, err := mutate.Campaign(design, asserts, faults, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-30s %10s\n", "fault", "detected by")
	for _, det := range dets {
		fmt.Printf("%-30s %6d / %d\n", det.Fault.String(), det.Detected, det.Total)
	}
	fmt.Println("\nassertions detecting 'stall_in stuck-at-1':")
	for _, det := range dets {
		if det.Fault.Signal == "stall_in" && det.Fault.StuckAt1 {
			for _, i := range det.Detecting {
				fmt.Println("  ", asserts[i])
			}
		}
	}

	// The same suite also works as a simulation-time monitor: replay random
	// stimulus on a mutant as lane 0 of the batch engine; with that lane
	// observed, RunPacked books exactly what a scalar replay would.
	fmt.Println("\nsimulation-based regression (assertion monitor on a mutant):")
	mutant, err := mutate.Apply(design, mutate.Fault{Signal: "stall_in", StuckAt1: true})
	if err != nil {
		log.Fatal(err)
	}
	mon, err := monitor.New(mutant, asserts)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := simc.CompileBatch(mutant, simc.BatchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	ps, err := prog.Pack([]sim.Stimulus{stimgen.Random(mutant, 2000, 11, 2)})
	if err != nil {
		log.Fatal(err)
	}
	bt, err := simc.NewBatchMachine(prog).RunPacked(ps)
	if err != nil {
		log.Fatal(err)
	}
	mon.RunPacked(bt, 1)
	fmt.Printf("  violations observed: %d (clean=%v, vacuous assertions: %d/%d)\n",
		len(mon.Violations()), mon.Clean(), mon.VacuousCount(), len(asserts))
}
