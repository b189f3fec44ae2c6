// Coverage-closure benchmark: the machine-readable evidence behind the
// directed-stimulus claims. For every bundled design it runs three suites at
// the same total-cycle budget — pure random, the paper-style CEX-only suite
// (counterexample windows from assertion mining), and the SAT-directed
// closure loop — and reports the coverage curve of each plus the per-hole
// SAT/fuzz/unreachable accounting of the directed run. scripts/bench.sh
// writes its output to BENCH_cover.json.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"goldmine/internal/coverage"
	"goldmine/internal/designs"
	"goldmine/internal/holes"
	"goldmine/internal/rtl"
	"goldmine/internal/sim"
	"goldmine/internal/stimgen"
)

// coverBenchBudget is the total stimulus cycle budget per suite. It is sized
// so random coverage has visibly plateaued on the bundled designs while the
// directed run still has budget left to spend on holes.
const coverBenchBudget = 512

// coverBenchSeed keeps the three suites on the same base seed so the random
// prefix of the directed run equals the start of the random baseline.
const coverBenchSeed = 1

// coverBenchCexIter bounds the assertion-mining refinement for the CEX-only
// suite; the paper's loop converges well before this on the bundled designs.
const coverBenchCexIter = 16

// legacyRow is the fixed-depth, one-query-per-hole closure loop's result on
// one design at this benchmark's budget and seed: the SAT solves its reach
// queries issued and the holes it left open.
type legacyRow struct{ solves, open int }

// frozenLegacy pins the legacy loop's results for every bundled design. The
// loop itself has been deleted; these are the legacy_reach_solves and
// legacy_open columns of BENCH_cover.json, recorded when both engines still
// ran side by side (reach solves repeat exactly for a given seed). The
// adaptive engine's reach_queries_reduced and directed_not_worse_than_legacy
// gates compare against them.
var frozenLegacy = map[string]legacyRow{
	"arbiter2": {40, 2}, "arbiter4": {0, 0}, "b01": {0, 0}, "b02": {0, 0},
	"b03": {0, 0}, "b04": {0, 0}, "b06": {268, 14}, "b09": {20, 1},
	"b10": {136, 7}, "b11": {0, 0}, "b12": {600, 13}, "b17": {878, 45},
	"b18": {156, 8}, "cex_small": {20, 1}, "decode": {44, 2}, "fetch": {0, 0},
	"pipeline": {89, 4}, "wb_stage": {0, 0},
}

// CoverAttempt is the per-hole accounting row of one directed attempt.
type CoverAttempt struct {
	Hole   string `json:"hole"`
	Method string `json:"method"`
	Depth  int    `json:"depth,omitempty"`
	// SATUnreachable marks holes that were UNSAT to the bound but still
	// closed by the fuzz fallback — evidence the bound is too small.
	SATUnreachable bool `json:"sat_unreachable,omitempty"`
}

// CoverCurvePoint samples a suite's coverage after each stimulus.
type CoverCurvePoint struct {
	Cycles int     `json:"cycles"`
	Open   int     `json:"open_holes"`
	Pct    float64 `json:"covered_pct"`
}

// CoverBenchDesign is one design's row of the closure benchmark.
type CoverBenchDesign struct {
	Design string `json:"design"`
	Budget int    `json:"budget_cycles"`
	// Universe is the design's total hole count (the fresh-collector holes);
	// every curve and open count below is against this fixed universe.
	Universe int               `json:"hole_universe"`
	Random   []CoverCurvePoint `json:"random_curve"`
	Cex      []CoverCurvePoint `json:"cex_curve"`
	Directed []CoverCurvePoint `json:"directed_curve"`
	// *Open are the holes left at budget exhaustion.
	RandomOpen   int `json:"random_open"`
	CexOpen      int `json:"cex_open"`
	DirectedOpen int `json:"directed_open"`
	// DirectedWins lists the holes the random baseline leaves open that the
	// directed suite closes at the same budget.
	DirectedWins []string `json:"directed_wins,omitempty"`
	// Methods counts the directed run's attempts by outcome; Attempts has
	// the per-hole rows.
	Methods          map[string]int `json:"methods"`
	Attempts         []CoverAttempt `json:"attempts"`
	Converged        bool           `json:"converged"`
	DirectedNotWorse bool           `json:"directed_not_worse"`

	// Closure-performance columns: time-to-closure (wall ms of building each
	// suite, the closure loop included for the directed strategy) and the
	// reach-query cost of the adaptive engine. Wall times vary run to run;
	// query counts are deterministic.
	RandomWallMS   float64 `json:"random_wall_ms"`
	CexWallMS      float64 `json:"cex_wall_ms"`
	DirectedWallMS float64 `json:"directed_wall_ms"`

	DirectedReachCalls  int `json:"directed_reach_calls"`
	DirectedReachSolves int `json:"directed_reach_solves"`
	// DirectedNotWorseThanLegacy asserts the adaptive engine leaves no more
	// holes open than the frozen legacy count (frozenLegacy): its coverage
	// did not pay for its query savings.
	DirectedNotWorseThanLegacy bool `json:"directed_not_worse_than_legacy"`
	// ReachQueriesReduced: the adaptive engine issued strictly fewer SAT
	// solves than the frozen legacy count (or neither issued any).
	ReachQueriesReduced bool `json:"reach_queries_reduced"`
	// DeadHoles lists holes k-induction proved unreachable at every depth
	// (removed from the universe, never fuzzed again).
	DeadHoles []string `json:"dead_holes,omitempty"`
}

// CoverBenchReport is the full benchmark output.
type CoverBenchReport struct {
	BudgetCycles int                `json:"budget_cycles"`
	Designs      []CoverBenchDesign `json:"designs"`
	// DirectedNeverWorse: on every design the directed suite leaves no more
	// holes open than pure random at the same budget.
	DirectedNeverWorse bool `json:"directed_never_worse"`
	// StrictWins counts designs where directed closes at least one hole the
	// random baseline leaves open.
	StrictWins int `json:"designs_with_strict_win"`
	// ReachQueriesReducedAll: on every design the adaptive engine solved
	// strictly fewer SAT queries than the frozen legacy count (or neither
	// solved any); NeverWorseThanLegacy is the coverage side of the same
	// claim.
	ReachQueriesReducedAll bool `json:"reach_queries_reduced_all"`
	NeverWorseThanLegacy   bool `json:"directed_never_worse_than_legacy"`
	// TotalDeadHoles sums the proven-dead promotions across designs.
	TotalDeadHoles int `json:"total_dead_holes"`
}

// curveOf replays the suite one stimulus at a time and samples the open-hole
// count after each, against the design's full hole universe.
func curveOf(d *rtl.Design, suite []sim.Stimulus) ([]CoverCurvePoint, map[string]bool, error) {
	universe := len(holes.FromCollector(coverage.New(d)))
	col := coverage.New(d)
	var curve []CoverCurvePoint
	cycles := 0
	for _, s := range suite {
		if err := col.RunSuiteCompiled([]sim.Stimulus{s}); err != nil {
			return nil, nil, err
		}
		cycles += len(s)
		open := len(holes.FromCollector(col))
		curve = append(curve, CoverCurvePoint{
			Cycles: cycles,
			Open:   open,
			Pct:    100 * float64(universe-open) / float64(max(universe, 1)),
		})
	}
	openKeys := map[string]bool{}
	for _, h := range holes.FromCollector(col) {
		openKeys[h.Key()] = true
	}
	return curve, openKeys, nil
}

// cexSuite builds the paper-style suite: only the counterexample windows
// from counterexample-guided assertion mining of the key outputs, truncated
// to the cycle budget.
func cexSuite(b *designs.Benchmark, d *rtl.Design, budget int) ([]sim.Stimulus, error) {
	mr, err := mineModule(b, seedOf(b), coverBenchCexIter)
	if err != nil {
		return nil, err
	}
	var suite []sim.Stimulus
	for _, res := range mr.Results {
		suite = append(suite, res.Ctx...)
	}
	var kept []sim.Stimulus
	for _, s := range suite {
		if budget <= 0 {
			break
		}
		if len(s) > budget {
			s = s[:budget]
		}
		kept = append(kept, s)
		budget -= len(s)
	}
	return kept, nil
}

// coverBenchDesign runs the three suites on one design.
func coverBenchDesign(b *designs.Benchmark, workers int) (*CoverBenchDesign, error) {
	legacy, ok := frozenLegacy[b.Name]
	if !ok {
		return nil, fmt.Errorf("no frozen legacy closure baseline for %s", b.Name)
	}
	d, err := b.Design()
	if err != nil {
		return nil, err
	}
	row := &CoverBenchDesign{
		Design:   b.Name,
		Budget:   coverBenchBudget,
		Universe: len(holes.FromCollector(coverage.New(d))),
		Methods:  map[string]int{},
	}

	// Pure random at the full budget: the same seed lanes the directed run
	// starts from, then the same fill generator for the rest of the budget.
	t0 := time.Now()
	randomSuite := stimgen.RandomLanes(d, 4, 64, coverBenchSeed, 2)
	randomSuite = append(randomSuite, stimgen.Random(d, coverBenchBudget-4*64, coverBenchSeed+0x5eed, 2))
	row.RandomWallMS = float64(time.Since(t0).Microseconds()) / 1000
	var randomOpen map[string]bool
	row.Random, randomOpen, err = curveOf(d, randomSuite)
	if err != nil {
		return nil, err
	}

	// Adaptive directed closure at the same budget — the reported curve.
	t0 = time.Now()
	res, err := stimgen.CloseCoverage(context.Background(), d, stimgen.ClosureOptions{
		DirectedOptions: stimgen.DirectedOptions{
			Seed:      coverBenchSeed,
			Workers:   workers,
			Telemetry: Telemetry,
		},
		TotalCycles: coverBenchBudget,
		FillRandom:  true,
		Compiled:    true,
	})
	if err != nil {
		return nil, err
	}
	row.DirectedWallMS = float64(time.Since(t0).Microseconds()) / 1000
	row.DirectedReachCalls, row.DirectedReachSolves = res.ReachCalls, res.ReachSolves
	row.Converged = res.Converged
	for _, at := range res.Attempts {
		row.Methods[at.Method]++
		row.Attempts = append(row.Attempts, CoverAttempt{
			Hole:           at.Hole.Key(),
			Method:         at.Method,
			Depth:          at.Depth,
			SATUnreachable: at.SATUnreachable,
		})
	}
	for _, dh := range res.Dead {
		row.DeadHoles = append(row.DeadHoles, dh.Key)
	}
	sort.Strings(row.DeadHoles)
	var directedOpen map[string]bool
	row.Directed, directedOpen, err = curveOf(d, res.Suite)
	if err != nil {
		return nil, err
	}

	row.ReachQueriesReduced = row.DirectedReachSolves < legacy.solves ||
		(row.DirectedReachSolves == 0 && legacy.solves == 0)

	// Paper-style CEX-only suite.
	t0 = time.Now()
	cs, err := cexSuite(b, d, coverBenchBudget)
	if err != nil {
		return nil, err
	}
	row.CexWallMS = float64(time.Since(t0).Microseconds()) / 1000
	var cexOpen map[string]bool
	row.Cex, cexOpen, err = curveOf(d, cs)
	if err != nil {
		return nil, err
	}

	row.RandomOpen = len(randomOpen)
	row.DirectedOpen = len(directedOpen)
	row.CexOpen = len(cexOpen)
	for k := range randomOpen {
		if !directedOpen[k] {
			row.DirectedWins = append(row.DirectedWins, k)
		}
	}
	sort.Strings(row.DirectedWins)
	row.DirectedNotWorse = row.DirectedOpen <= row.RandomOpen
	row.DirectedNotWorseThanLegacy = row.DirectedOpen <= legacy.open
	return row, nil
}

// CoverBench runs the coverage-closure benchmark over every bundled design
// and writes the JSON report to w.
func CoverBench(w io.Writer, workers int) error {
	rep := CoverBenchReport{
		BudgetCycles:           coverBenchBudget,
		DirectedNeverWorse:     true,
		ReachQueriesReducedAll: true,
		NeverWorseThanLegacy:   true,
	}
	for _, b := range designs.All() {
		row, err := coverBenchDesign(b, workers)
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		rep.Designs = append(rep.Designs, *row)
		if !row.DirectedNotWorse {
			rep.DirectedNeverWorse = false
		}
		if !row.ReachQueriesReduced {
			rep.ReachQueriesReducedAll = false
		}
		if !row.DirectedNotWorseThanLegacy {
			rep.NeverWorseThanLegacy = false
		}
		rep.TotalDeadHoles += len(row.DeadHoles)
		if len(row.DirectedWins) > 0 {
			rep.StrictWins++
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
