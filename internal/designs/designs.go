// Package designs embeds the benchmark RTL used by the paper's experiments:
//
//   - Simple synthetic blocks: cex_small (combinational), arbiter2 and
//     arbiter4 (sequential, the paper's Section 6 example and its 4-port
//     variant).
//   - Rigel-like pipeline stages: fetch, decode, wb_stage. Rigel's RTL is not
//     public; these are simplified but structurally faithful stand-ins using
//     the signal names from the paper's tables (stall_in, branch_pc,
//     branch_mispredict, icache_rdvl_i, valid).
//   - ITC'99-style benchmarks: b01, b02, b09 re-implemented from their
//     published functional descriptions; b12, b17, b18 are reduced-scale
//     substitutes with the same structural character (documented per design).
//
// Every benchmark provides its Verilog source, a suggested mining window, a
// directed test where the paper used one, and the outputs highlighted by the
// experiments.
package designs

import (
	"fmt"
	"sort"

	"goldmine/internal/rtl"
	"goldmine/internal/sim"
)

// Benchmark is one registered design.
type Benchmark struct {
	Name        string
	Description string
	Source      string
	// Window is the mining window length used in the experiments.
	Window int
	// KeyOutputs are the outputs the experiments focus on (all outputs when
	// empty).
	KeyOutputs []string
	// Directed returns the design's directed test, or nil when the paper
	// used random stimulus.
	Directed func() sim.Stimulus
}

// Design parses and elaborates the benchmark RTL.
func (b *Benchmark) Design() (*rtl.Design, error) {
	d, err := rtl.ElaborateSource(b.Source)
	if err != nil {
		return nil, fmt.Errorf("benchmark %s: %w", b.Name, err)
	}
	return d, nil
}

var registry = map[string]*Benchmark{}

func register(b *Benchmark) {
	if _, dup := registry[b.Name]; dup {
		panic("designs: duplicate benchmark " + b.Name)
	}
	registry[b.Name] = b
}

// Get returns a benchmark by name.
func Get(name string) (*Benchmark, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q (have %v)", name, Names())
	}
	return b, nil
}

// Load returns the design a command or a job names: the benchmark called
// name and its elaborated design, or, when source (Verilog text) is given
// instead, a nil benchmark and the design elaborated from the source.
func Load(name, source string) (*Benchmark, *rtl.Design, error) {
	switch {
	case name != "" && source != "":
		return nil, nil, fmt.Errorf("a benchmark name and a Verilog source are mutually exclusive")
	case name != "":
		b, err := Get(name)
		if err != nil {
			return nil, nil, err
		}
		d, err := b.Design()
		if err != nil {
			return nil, nil, err
		}
		return b, d, nil
	case source != "":
		d, err := rtl.ElaborateSource(source)
		if err != nil {
			return nil, nil, err
		}
		return nil, d, nil
	}
	return nil, nil, fmt.Errorf("need a benchmark name or a Verilog source")
}

// Names lists registered benchmarks sorted by name.
func Names() []string {
	var out []string
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns all benchmarks sorted by name.
func All() []*Benchmark {
	var out []*Benchmark
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}
