package experiments

import (
	"fmt"

	"goldmine/internal/assertion"
	"goldmine/internal/designs"
	"goldmine/internal/mc"
	"goldmine/internal/mutate"
	"goldmine/internal/stimgen"
)

func init() {
	register("table2", "faults covered by assertions (stuck-at mutation campaign)", Table2)
	register("example6", "the paper's Section 6 worked example on arbiter2", Example6)
}

// Table2 reproduces Table 2: assertions mined on the correct design are used
// as a regression suite against stuck-at mutants of the paper's signals.
func Table2() (*Table, error) {
	// Mine assertion suites for the modules owning each signal. fetch_pc is
	// mined per bit (cheap thanks to the bit-level cone analysis).
	type target struct {
		bench   string
		signal  string
		outputs []string // outputs to mine for the regression suite
	}
	targets := []target{
		{"fetch", "stall_in", []string{"valid", "fetch_pc"}},
		{"fetch", "branch_pc", []string{"valid", "fetch_pc"}},
		{"fetch", "branch_mispredict", []string{"valid", "fetch_pc"}},
		{"fetch", "icache_rdvl_i", []string{"valid"}},
		{"decode", "stall_in", []string{"valid_out", "is_alu", "illegal"}},
		{"wb_stage", "exception", []string{"wb_we", "valid_r"}},
	}
	t := &Table{
		ID:     "Table2",
		Title:  "Faults Covered by Assertions",
		Header: []string{"Module", "Signal", "Assertions", "stuck-at-0", "stuck-at-1"},
	}
	suites := map[string][]*assertion.Assertion{}
	for _, tgt := range targets {
		key := tgt.bench + "/" + fmt.Sprint(tgt.outputs)
		if _, done := suites[key]; !done {
			b, d, err := designs.Load(tgt.bench, "")
			if err != nil {
				return nil, err
			}
			seed := stimgen.Random(d, 64, 5, 2)
			mineOpts := mc.DefaultOptions()
			mineOpts.MaxBMCDepth = 12
			mineOpts.MaxInduction = 8
			mineOpts.MaxExplicitBits = 20
			mr, err := mineModuleCfg(b, seed, 8, tgt.outputs, &mineOpts)
			if err != nil {
				return nil, err
			}
			var as []*assertion.Assertion
			for _, r := range mr.Results {
				as = append(as, r.Assertions()...)
			}
			suites[key] = as
		}
	}
	for _, tgt := range targets {
		key := tgt.bench + "/" + fmt.Sprint(tgt.outputs)
		asserts := suites[key]
		b, _ := designs.Get(tgt.bench)
		d, err := b.Design()
		if err != nil {
			return nil, err
		}
		opts := mc.DefaultOptions()
		opts.MaxBMCDepth = 10
		opts.MaxInduction = 6
		opts.MaxExplicitBits = 20
		dets, err := mutate.Campaign(d, asserts, []mutate.Fault{
			{Signal: tgt.signal, StuckAt1: false},
			{Signal: tgt.signal, StuckAt1: true},
		}, opts)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			tgt.bench, tgt.signal,
			fmt.Sprintf("%d", len(asserts)),
			fmt.Sprintf("%d", dets[0].Detected),
			fmt.Sprintf("%d", dets[1].Detected),
		})
	}
	t.Notes = append(t.Notes,
		"paper (Table 2): every fault detected by >= 1 assertion; counts differ per polarity",
		"shape check: no zero rows; stuck-at-0 and stuck-at-1 detection counts differ")
	return t, nil
}

// Example6 reruns the Section 6 walk-through: mining arbiter2.gnt0 from the
// directed test, printing the assertions discovered per iteration.
func Example6() (*Table, error) {
	b, err := designs.Get("arbiter2")
	if err != nil {
		return nil, err
	}
	mr, err := mineModule(&designs.Benchmark{
		Name: b.Name, Source: b.Source, Window: b.Window,
		KeyOutputs: []string{"gnt0"}, Directed: b.Directed,
	}, seedOf(b), 0)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Example6",
		Title:  "Section 6 walk-through: assertions for arbiter2.gnt0",
		Header: []string{"Iter", "Verdict", "Assertion (LTL)"},
	}
	res := mr.Results[0]
	for _, rec := range res.Failed {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", rec.Iteration), "false", rec.Assertion.String(),
		})
	}
	for _, rec := range res.Proved {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", rec.Iteration), "TRUE", rec.Assertion.String(),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("converged=%v, iterations=%d, ctx patterns=%d, proved=%d",
			res.Converged, len(res.Iterations), len(res.Ctx), len(res.Proved)),
		"paper Section 6 converges after 3 iterations with true assertions A2,A3,A6-A9,A11,A12")
	return t, nil
}
