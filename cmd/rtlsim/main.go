// Command rtlsim parses, elaborates and simulates a design, dumping the
// per-cycle trace of every signal and a coverage summary.
//
// Usage:
//
//	rtlsim -design arbiter2 -cycles 20 -stim random -seed 7
//	rtlsim -file my.v -cycles 100 -stim random
//	rtlsim -design arbiter2 -stim directed
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"goldmine/internal/coverage"
	"goldmine/internal/designs"
	"goldmine/internal/sim"
	"goldmine/internal/simc"
	"goldmine/internal/stimgen"
)

func main() {
	var (
		design = flag.String("design", "", "benchmark design name")
		file   = flag.String("file", "", "Verilog source file")
		cycles = flag.Int("cycles", 20, "cycles to simulate (random stimulus)")
		stim   = flag.String("stim", "random", "stimulus: random | directed | exhaustive")
		seed   = flag.Int64("seed", 1, "random stimulus seed")
		quiet  = flag.Bool("quiet", false, "suppress the trace, print only coverage")
		vcd    = flag.String("vcd", "", "write the trace as a VCD file")
	)
	flag.Parse()
	if err := run(*design, *file, *cycles, *stim, *seed, *quiet, *vcd); err != nil {
		fmt.Fprintln(os.Stderr, "rtlsim:", err)
		os.Exit(1)
	}
}

func run(design, file string, cycles int, stimSpec string, seed int64, quiet bool, vcdPath string) error {
	if cycles < 0 {
		return fmt.Errorf("-cycles must be >= 0, got %d", cycles)
	}
	var src []byte
	if file != "" {
		var err error
		if src, err = os.ReadFile(file); err != nil {
			return err
		}
	}
	bench, d, err := designs.Load(design, string(src))
	if err != nil {
		return err
	}

	var stim sim.Stimulus
	switch stimSpec {
	case "random":
		stim = stimgen.Random(d, cycles, seed, 2)
	case "directed":
		if bench == nil || bench.Directed == nil {
			return fmt.Errorf("design has no directed test")
		}
		stim = bench.Directed()
	case "exhaustive":
		stim = stimgen.Exhaustive(d, 20)
		if stim == nil {
			return fmt.Errorf("input space too large for exhaustive stimulus")
		}
	default:
		return fmt.Errorf("bad -stim %q", stimSpec)
	}

	// The stimulus runs as lane 0 of the batch engine, whose trace equals
	// the sim.Simulator interpreter's; coverage runs it once more on the
	// collector's point-word program.
	traces, err := simc.SimulateBatch(d, []sim.Stimulus{stim})
	if err != nil {
		return err
	}
	trace := traces[0]
	col := coverage.New(d)
	if err := col.RunSuiteCompiled([]sim.Stimulus{stim}); err != nil {
		return err
	}

	if !quiet {
		// Header.
		var names []string
		for _, sig := range trace.Signals {
			names = append(names, sig.Name)
		}
		fmt.Printf("cycle  %s\n", strings.Join(names, "  "))
		for c := 0; c < trace.Cycles(); c++ {
			var cells []string
			for i, sig := range trace.Signals {
				cells = append(cells, fmt.Sprintf("%*d", len(sig.Name), trace.Values[c][i]))
			}
			fmt.Printf("%5d  %s\n", c, strings.Join(cells, "  "))
		}
	}
	if vcdPath != "" {
		f, err := os.Create(vcdPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := sim.WriteVCD(f, d, trace, d.Name); err != nil {
			return err
		}
		fmt.Println("wrote", vcdPath)
	}
	fmt.Println("coverage:", col.Report())
	return nil
}
