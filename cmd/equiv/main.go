// Command equiv checks two designs for functional equivalence: exact for
// combinational designs and for sequential designs whose combined state fits
// the explicit product-machine engine, bounded miter unrolling otherwise.
//
// Usage:
//
//	equiv -a golden.v -b revised.v
//	equiv -a arbiter2 -b my_arbiter.v -depth 32
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"goldmine/internal/designs"
	"goldmine/internal/mc"
	"goldmine/internal/rtl"
)

func main() {
	var (
		aSpec = flag.String("a", "", "first design: benchmark name or Verilog file")
		bSpec = flag.String("b", "", "second design: benchmark name or Verilog file")
		depth = flag.Int("depth", 24, "bounded miter depth for large sequential designs")
	)
	flag.Parse()
	if err := run(*aSpec, *bSpec, *depth); err != nil {
		fmt.Fprintln(os.Stderr, "equiv:", err)
		os.Exit(1)
	}
}

func load(spec string) (*rtl.Design, error) {
	if spec == "" {
		return nil, fmt.Errorf("missing design (need -a and -b)")
	}
	if _, d, err := designs.Load(spec, ""); err == nil {
		return d, nil
	}
	src, err := os.ReadFile(spec)
	if err != nil {
		return nil, err
	}
	_, d, err := designs.Load("", string(src))
	return d, err
}

func run(aSpec, bSpec string, depth int) error {
	a, err := load(aSpec)
	if err != nil {
		return err
	}
	b, err := load(bSpec)
	if err != nil {
		return err
	}
	opts := mc.DefaultOptions()
	opts.MaxBMCDepth = depth
	res, err := mc.Equivalent(a, b, opts)
	if err != nil {
		return err
	}
	switch res.Status {
	case mc.EquivEqual:
		fmt.Printf("EQUIVALENT (exhaustive, depth %d)\n", res.Depth)
	case mc.EquivBounded:
		fmt.Printf("equivalent up to %d cycles (no proof beyond the bound)\n", res.Depth)
	case mc.EquivDifferent:
		fmt.Printf("DIFFERENT: output %s diverges after %d cycles\n", res.Output, len(res.Ctx))
		var cycles []string
		for _, iv := range res.Ctx {
			var kv []string
			for k, v := range iv {
				if v != 0 {
					kv = append(kv, fmt.Sprintf("%s=%d", k, v))
				}
			}
			if len(kv) == 0 {
				kv = []string{"-"}
			}
			cycles = append(cycles, strings.Join(kv, ","))
		}
		fmt.Println("distinguishing sequence:", strings.Join(cycles, " | "))
	}
	return nil
}
