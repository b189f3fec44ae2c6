// Command coverage measures all coverage metrics of a design under a chosen
// stimulus, lists the uncovered points, and — with -directed — runs the
// coverage-closure loop that aims SAT-directed stimulus at the holes. The
// suite runs on the 64-lane batch engine.
//
// Usage:
//
//	coverage -design fetch -cycles 1000 -seed 3
//	coverage -design arbiter2 -goldmine
//	coverage -design fetch -directed -cycles 1000 -j 4
//	coverage -design fetch -directed -dead-corpus dead.jsonl
//	coverage -design fsm -holes-json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"goldmine/internal/core"
	"goldmine/internal/coverage"
	"goldmine/internal/designs"
	"goldmine/internal/holes"
	"goldmine/internal/serve"
	"goldmine/internal/sim"
	"goldmine/internal/stimgen"
)

type cliOpts struct {
	design    string
	cycles    int
	seed      int64
	goldmine  bool
	uncovered bool
	directed  bool
	deadFile  string
	holesJSON bool
	workers   int
}

func main() {
	var o cliOpts
	flag.StringVar(&o.design, "design", "", "benchmark design name")
	flag.IntVar(&o.cycles, "cycles", 1000, "total stimulus cycle budget")
	flag.Int64Var(&o.seed, "seed", 1, "random seed")
	flag.BoolVar(&o.goldmine, "goldmine", false, "augment with GoldMine counterexample stimulus")
	flag.BoolVar(&o.uncovered, "uncovered", false, "list uncovered points")
	flag.BoolVar(&o.directed, "directed", false, "close coverage: aim SAT-directed stimulus at the holes (equal -cycles budget)")
	flag.StringVar(&o.deadFile, "dead-corpus", "", "JSONL journal of proven-dead holes, loaded before and appended after closure")
	flag.BoolVar(&o.holesJSON, "holes-json", false, "dump the remaining coverage holes as JSON to stdout")
	flag.IntVar(&o.workers, "j", runtime.GOMAXPROCS(0), "parallel directed workers (results are identical for any value)")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "coverage:", err)
		os.Exit(1)
	}
}

func run(o cliOpts, w io.Writer) error {
	if o.cycles < 0 {
		return fmt.Errorf("-cycles must be >= 0, got %d", o.cycles)
	}
	if o.workers < 1 {
		return fmt.Errorf("-j must be >= 1, got %d", o.workers)
	}
	if o.design == "" {
		return fmt.Errorf("need -design (one of %v)", designs.Names())
	}
	if o.goldmine && o.directed {
		return fmt.Errorf("-goldmine and -directed are mutually exclusive: closure builds its own suite")
	}
	if o.deadFile != "" && !o.directed && !o.holesJSON {
		return fmt.Errorf("-dead-corpus needs -directed or -holes-json: only closure and the hole listing read the journal")
	}
	b, d, err := designs.Load(o.design, "")
	if err != nil {
		return err
	}

	var suite []sim.Stimulus
	if o.directed {
		res, err := stimgen.CloseCoverage(context.Background(), d, stimgen.ClosureOptions{
			DirectedOptions: stimgen.DirectedOptions{Seed: o.seed, Workers: o.workers},
			TotalCycles:     o.cycles,
			FillRandom:      true,
			DeadFile:        o.deadFile,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: initial %s\n", o.design, res.Initial)
		for i, st := range res.Iterations {
			fmt.Fprintf(w, "  iter %d: holes=%d directed=%d closed=%d shared=%d dead=%d deferred=%d\n",
				i+1, st.Holes, st.Directed, st.Closed, st.Shared, st.Dead, st.Deferred)
		}
		fmt.Fprintf(w, "%s: final   %s\n", o.design, res.Final)
		fmt.Fprintf(w, "  methods: sat=%d fuzz=%d shared=%d dead=%d deferred=%d unreachable=%d open=%d error=%d cycles=%d converged=%v\n",
			res.Methods[stimgen.MethodSAT], res.Methods[stimgen.MethodFuzz],
			res.Methods[stimgen.MethodShared], res.Methods[stimgen.MethodDead],
			res.Methods[stimgen.MethodDeferred],
			res.Methods[stimgen.MethodUnreachable], res.Methods[stimgen.MethodOpen],
			res.Methods[stimgen.MethodError], res.CyclesUsed, res.Converged)
		fmt.Fprintf(w, "  reach: calls=%d solves=%d\n", res.ReachCalls, res.ReachSolves)
		if res.Evicted > 0 || res.Readmitted > 0 {
			fmt.Fprintf(w, "  compact: evicted=%d readmitted=%d\n", res.Evicted, res.Readmitted)
		}
		fmt.Fprintf(w, "  dead: total=%d new=%d\n", res.DeadLoaded+len(res.Dead), len(res.Dead))
		for _, dh := range res.Dead {
			fmt.Fprintf(w, "  proven dead: %s (depth=%d k=%d)\n", dh.Key, dh.Depth, dh.K)
		}
		suite = res.Suite
	} else {
		suite = []sim.Stimulus{stimgen.Random(d, o.cycles, o.seed, 2)}
		if o.goldmine {
			// Mine the key outputs as goldmine resolves a request.
			req := serve.Request{Design: o.design, Seed: "none", MaxIter: 24, Workers: o.workers}
			r, err := req.Resolve()
			if err != nil {
				return err
			}
			eng, err := core.NewEngine(r.Design, r.Config)
			if err != nil {
				return err
			}
			var targets []core.Target
			for _, name := range b.KeyOutputs {
				sig := r.Design.Signal(name)
				for bit := 0; bit < sig.Width; bit++ {
					targets = append(targets, core.Target{Output: sig, Bit: bit})
				}
			}
			seed := stimgen.Random(r.Design, min(o.cycles, 128), o.seed, 2)
			res, err := eng.MineTargets(context.Background(), targets, seed)
			if err != nil {
				return err
			}
			for _, out := range res.Outputs {
				suite = append(suite, out.Ctx...)
			}
		}
	}

	col := coverage.New(d)
	if err := col.RunSuiteCompiled(suite); err != nil {
		return err
	}
	if !o.directed {
		fmt.Fprintf(w, "%s: %s\n", o.design, col.Report())
	}
	if o.uncovered {
		for i, p := range d.Cover.Points {
			if !col.PointCovered(i) {
				fmt.Fprintln(w, "  uncovered:", p.String())
			}
		}
	}
	if o.holesJSON {
		hs := holes.FromCollector(col)
		if o.deadFile != "" {
			dead, err := stimgen.LoadDeadHoles(o.deadFile, d)
			if err != nil {
				return err
			}
			kept := hs[:0]
			for _, h := range hs {
				if _, ok := dead[h.Key()]; !ok {
					kept = append(kept, h)
				}
			}
			hs = kept
		}
		views := make([]holes.JSON, len(hs))
		for i, h := range hs {
			views[i] = h.JSON()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(views); err != nil {
			return err
		}
	}
	return nil
}
