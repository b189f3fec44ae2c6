// Model-checker benchmark: the machine-readable evidence behind the
// incremental-BMC claims (persistent-session vs fresh-session check latency
// on a realistic mined-assertion batch, verdict/counterexample equality).
// scripts/bench.sh writes its output to BENCH_mc.json.
package experiments

import (
	"context"

	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"time"

	"goldmine/internal/assertion"
	"goldmine/internal/core"
	"goldmine/internal/designs"
	"goldmine/internal/mc"
	"goldmine/internal/rtl"
	"goldmine/internal/sim"
)

// mcBenchDesigns are the designs the incremental benchmark checks: every
// bundled benchmark, so the report covers the paper's running examples
// (arbiters), the pipeline stages, and the ITC'99-style controllers alike.
// Mining each design first harvests a realistic re-check batch.
var mcBenchDesigns = designs.Names()

// mcBenchPortfolioWidth is the racing width of the portfolio column: two
// lanes (one BMC, one induction) is the narrowest racing portfolio and the
// one that wins wall clock even on a single core, because a proved property
// no longer pays for the full BMC ladder before induction starts.
const mcBenchPortfolioWidth = 2

// mcBenchRounds is how many times each batch is replayed per timing: sessions
// amortize encoding across a batch, so one round already shows the effect and
// three keep the wall times out of timer-granularity noise.
const mcBenchRounds = 3

// mcBenchMaxSuite caps the harvested batch per design so a wide design cannot
// turn the benchmark into a soak test.
const mcBenchMaxSuite = 32

// MCBenchDesign is one design's row of the incremental-checking benchmark.
type MCBenchDesign struct {
	Design     string `json:"design"`
	Assertions int    `json:"assertions"`
	// FreshMS / SessionMS are the wall times for checking the whole batch
	// (mcBenchRounds times) with Checker.Check, which runs each check on a
	// fresh throwaway Session, vs one persistent Session; Speedup is their
	// ratio.
	FreshMS   float64 `json:"fresh_ms"`
	SessionMS float64 `json:"session_ms"`
	Speedup   float64 `json:"speedup"`
	// ColdSoloMS / PortfolioMS time the cold-batch regime the portfolio is
	// for: every assertion checked once per round on a session that starts
	// cold (a fresh Session per round, so nothing is amortized across rounds),
	// solo incremental ladder vs racing mcBenchPortfolioWidth diversified
	// lanes on predicted-hard checks. Both run on a persistent Checker whose
	// difficulty/outcome model was warmed by one untimed probe pass — the
	// production shape, since the mining run that harvested this batch already
	// checked every candidate through the same Checker. PortfolioSpeedup is
	// ColdSoloMS/PortfolioMS, and Races counts how many checks actually raced
	// across the timed rounds — zero means the router kept everything solo
	// (the design's checks are easy, or racing could not win them).
	ColdSoloMS       float64 `json:"cold_solo_ms"`
	PortfolioMS      float64 `json:"portfolio_ms"`
	PortfolioSpeedup float64 `json:"portfolio_speedup"`
	Races            int     `json:"portfolio_races"`
	// Reuses and Activations are the session's telemetry counters: solver
	// states carried across checks and induction properties activated.
	Reuses      int `json:"session_reuses"`
	Activations int `json:"session_activations"`
	// ResultsMatch reports that all four paths (fresh, session, cold-solo,
	// portfolio) agreed on status, method, depth, and the byte-identical
	// canonical counterexample for every assertion.
	ResultsMatch bool `json:"results_match"`
}

// MCBenchReport is the full benchmark output.
type MCBenchReport struct {
	Designs     []MCBenchDesign `json:"designs"`
	MeanSpeedup float64         `json:"mean_speedup"`
	// PortfolioGeomeanRaced is the geometric mean of PortfolioSpeedup (the
	// cold-batch portfolio win over the incremental-session solo ladder) over
	// the SAT-dominated designs — the ones where the router sent at least one
	// check to the racing portfolio. Designs whose checks all stay on the solo
	// path are excluded: racing never ran there, so their ratio is timer
	// noise, not a portfolio measurement.
	PortfolioGeomeanRaced float64 `json:"portfolio_geomean_raced"`
	// RacedDesigns counts the designs included in PortfolioGeomeanRaced.
	RacedDesigns int `json:"raced_designs"`
	// AllMatch is the conjunction of the per-design equality checks.
	AllMatch bool `json:"all_results_match"`
}

// MCAssertionSuite mines a benchmark design once (sequentially, bounded
// iterations) and returns the harvested candidate assertions — proved,
// falsified, and unknown alike — as a realistic re-check workload. The batch
// is deterministic: mining is reproducible and the records keep discovery
// order.
func MCAssertionSuite(name string, maxIter int) (*rtl.Design, []*assertion.Assertion, error) {
	b, err := designs.Get(name)
	if err != nil {
		return nil, nil, err
	}
	d, err := b.Design()
	if err != nil {
		return nil, nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Window = b.Window
	cfg.Workers = 1
	if maxIter > 0 {
		cfg.MaxIterations = maxIter
	}
	if CheckTimeout > 0 {
		cfg.MC.CheckTimeout = CheckTimeout
	}
	eng, err := core.NewEngine(d, cfg)
	if err != nil {
		return nil, nil, err
	}
	var seed sim.Stimulus
	if b.Directed != nil {
		seed = b.Directed()
	}
	res, err := eng.MineAll(context.Background(), seed)
	if err != nil {
		return nil, nil, err
	}
	var suite []*assertion.Assertion
	for _, out := range res.Outputs {
		for _, rec := range out.Proved {
			suite = append(suite, rec.Assertion)
		}
		for _, rec := range out.Failed {
			suite = append(suite, rec.Assertion)
		}
		for _, rec := range out.Unknown {
			suite = append(suite, rec.Assertion)
		}
	}
	if len(suite) > mcBenchMaxSuite {
		suite = suite[:mcBenchMaxSuite]
	}
	if len(suite) == 0 {
		return nil, nil, fmt.Errorf("%s: mining harvested no assertions", name)
	}
	return d, suite, nil
}

// mcBenchOptions forces the SAT engines (the paths sessions change) so the
// benchmark measures BMC/induction encoding cost, not the explicit engine.
func mcBenchOptions() mc.Options {
	o := mc.DefaultOptions()
	o.MaxStateBits = 0
	if CheckTimeout > 0 {
		o.CheckTimeout = CheckTimeout
	}
	return o
}

// MCBench runs the incremental-checking benchmark and writes the JSON report
// to w.
func MCBench(w io.Writer) error {
	rep := MCBenchReport{AllMatch: true}
	sum, logSum := 0.0, 0.0
	raced := 0
	for _, name := range mcBenchDesigns {
		d, suite, err := MCAssertionSuite(name, 4)
		if err != nil {
			return err
		}

		fresh := mc.NewWithOptions(d, mcBenchOptions())
		var freshRes []*mc.Result
		start := time.Now()
		for round := 0; round < mcBenchRounds; round++ {
			for _, a := range suite {
				r, err := fresh.Check(a)
				if err != nil {
					return fmt.Errorf("%s fresh: %w", name, err)
				}
				if round == 0 {
					freshRes = append(freshRes, r)
				}
			}
		}
		freshT := time.Since(start)

		sess := mc.NewWithOptions(d, mcBenchOptions()).NewSession()
		var sessRes []*mc.Result
		start = time.Now()
		for round := 0; round < mcBenchRounds; round++ {
			for _, a := range suite {
				r, err := sess.Check(a)
				if err != nil {
					return fmt.Errorf("%s session: %w", name, err)
				}
				if round == 0 {
					sessRes = append(sessRes, r)
				}
			}
		}
		sessT := time.Since(start)

		// Cold-batch columns: the mining workload (each candidate decided once
		// on a session with no amortized state) on a Checker whose difficulty
		// model the harvest already warmed. One untimed probe pass stands in
		// for the harvest mining, then each timed round gets a fresh Session.
		coldRun := func(portfolio int) (time.Duration, []*mc.Result, int, error) {
			o := mcBenchOptions()
			o.Portfolio = portfolio
			c := mc.NewWithOptions(d, o)
			probe := c.NewSession()
			for _, a := range suite {
				if _, err := probe.Check(a); err != nil {
					return 0, nil, 0, err
				}
			}
			var res []*mc.Result
			races := 0
			start := time.Now()
			for round := 0; round < mcBenchRounds; round++ {
				sess := c.NewSession()
				for _, a := range suite {
					r, err := sess.Check(a)
					if err != nil {
						return 0, nil, 0, err
					}
					if round == 0 {
						res = append(res, r)
					}
				}
				races += sess.Races
			}
			return time.Since(start), res, races, nil
		}
		coldT, coldRes, _, err := coldRun(0)
		if err != nil {
			return fmt.Errorf("%s cold-solo: %w", name, err)
		}
		portT, portRes, races, err := coldRun(mcBenchPortfolioWidth)
		if err != nil {
			return fmt.Errorf("%s portfolio: %w", name, err)
		}

		match := true
		for i := range freshRes {
			f := freshRes[i]
			for _, o := range []*mc.Result{sessRes[i], coldRes[i], portRes[i]} {
				if f.Status != o.Status || f.Method != o.Method || f.Depth != o.Depth || !reflect.DeepEqual(f.Ctx, o.Ctx) {
					match = false
				}
			}
		}
		row := MCBenchDesign{
			Design:       name,
			Assertions:   len(suite),
			FreshMS:      float64(freshT.Microseconds()) / 1000,
			SessionMS:    float64(sessT.Microseconds()) / 1000,
			ColdSoloMS:   float64(coldT.Microseconds()) / 1000,
			PortfolioMS:  float64(portT.Microseconds()) / 1000,
			Races:        races,
			Reuses:       sess.Reuses,
			Activations:  sess.Activations,
			ResultsMatch: match,
		}
		if sessT > 0 {
			row.Speedup = freshT.Seconds() / sessT.Seconds()
		}
		if portT > 0 {
			row.PortfolioSpeedup = coldT.Seconds() / portT.Seconds()
		}
		rep.Designs = append(rep.Designs, row)
		rep.AllMatch = rep.AllMatch && match
		sum += row.Speedup
		if row.Races > 0 && row.PortfolioSpeedup > 0 {
			logSum += math.Log(row.PortfolioSpeedup)
			raced++
		}
	}
	if len(rep.Designs) > 0 {
		rep.MeanSpeedup = sum / float64(len(rep.Designs))
	}
	if raced > 0 {
		rep.PortfolioGeomeanRaced = math.Exp(logSum / float64(raced))
		rep.RacedDesigns = raced
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&rep)
}
