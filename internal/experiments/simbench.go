// Simulation benchmark: the machine-readable evidence behind the 64-lane
// bit-parallel simulator claims (per lane-cycle latency of the batched engine
// vs the per-cycle latency of the tree-walking interpreter, trace equality).
// scripts/bench.sh writes its output to BENCH_sim.json.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"goldmine/internal/designs"
	"goldmine/internal/sim"
	"goldmine/internal/simc"
	"goldmine/internal/stimgen"
)

// simBenchCycles is the stimulus length per timed run: long enough that the
// per-run setup (reset, arena allocation) vanishes against the cycle loop.
const simBenchCycles = 2000

// simBenchMinTime is the minimum wall time of one measurement batch; runs
// repeat until it is exceeded so fast designs stay out of timer granularity.
const simBenchMinTime = 30 * time.Millisecond

// simBenchRounds is how many paired measurement rounds each design gets. A
// round times all engines back-to-back, so host frequency drift and scheduler
// noise hit every mode of a round roughly equally; the reported speedups are
// medians of the per-round ratios, which stay stable even when the absolute
// per-cycle times wander between rounds.
const simBenchRounds = 7

// SimBenchDesign is one design's row of the simulation benchmark.
type SimBenchDesign struct {
	Design string `json:"design"`
	Cycles int    `json:"cycles"`
	// OneBitFraction is the fraction of batch-engine words that carry 1-bit
	// signals — the bit-parallel win concentrates where this is high.
	OneBitFraction float64 `json:"one_bit_fraction"`
	// InterpNSPerCycle is the interpreter's per-cycle cost;
	// BatchedNSPerLaneCycle divides the 64-lane run by cycles×lanes. Each is
	// the median over simBenchRounds measurement rounds.
	InterpNSPerCycle      float64 `json:"interp_ns_per_cycle"`
	BatchedNSPerLaneCycle float64 `json:"batched_ns_per_lane_cycle"`
	// BatchedSpeedup is interpreter per cycle over batched per lane-cycle:
	// the median of per-round paired ratios, so it may differ slightly from
	// the quotient of the median ns figures.
	BatchedSpeedup float64 `json:"batched_speedup"`
	// TracesMatch reports that batched lane 0 is row-identical to the
	// interpreter on the benchmark stimulus.
	TracesMatch bool `json:"traces_match"`
}

// SimBenchReport is the full benchmark output.
type SimBenchReport struct {
	Designs              []SimBenchDesign `json:"designs"`
	MeanBatchedSpeedup   float64          `json:"mean_batched_speedup"`
	AllMatch             bool             `json:"all_traces_match"`
	BatchLanes           int              `json:"batch_lanes"`
	MinBatchedSpeedup1b  float64          `json:"min_batched_speedup_1bit"`
	OneBitDesignFraction float64          `json:"one_bit_design_threshold"`
}

// timeRuns repeats fn for at least simBenchMinTime and returns the mean wall
// time of one call — a single measurement batch.
func timeRuns(fn func() error) (time.Duration, error) {
	runs := 0
	start := time.Now()
	for time.Since(start) < simBenchMinTime || runs == 0 {
		if err := fn(); err != nil {
			return 0, err
		}
		runs++
	}
	return time.Since(start) / time.Duration(runs), nil
}

// median returns the median of xs (which it sorts in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func tracesEqual(a, b *sim.Trace) bool {
	if a.Cycles() != b.Cycles() || len(a.Signals) != len(b.Signals) {
		return false
	}
	for c := range a.Values {
		for j := range a.Values[c] {
			if a.Values[c][j] != b.Values[c][j] {
				return false
			}
		}
	}
	return true
}

// SimBench runs the simulation benchmark over every bundled design and writes
// the JSON report to w.
func SimBench(w io.Writer) error {
	rep := SimBenchReport{
		AllMatch:             true,
		BatchLanes:           simc.MaxLanes,
		OneBitDesignFraction: 0.5,
		MinBatchedSpeedup1b:  0,
	}
	sumB := 0.0
	first1b := true
	for _, b := range designs.All() {
		d, err := b.Design()
		if err != nil {
			return err
		}
		stim := stimgen.Random(d, simBenchCycles, 42, 2)
		lanes := stimgen.RandomLanes(d, simc.MaxLanes, simBenchCycles, 42, 2)

		s, err := sim.New(d)
		if err != nil {
			return err
		}
		want, err := s.Run(stim)
		if err != nil {
			return err
		}

		bp, err := simc.CompileBatch(d, simc.BatchOptions{})
		if err != nil {
			return fmt.Errorf("%s compile batch: %w", b.Name, err)
		}
		bm := simc.NewBatchMachine(bp)
		packed, err := bp.Pack(lanes)
		if err != nil {
			return err
		}
		bt, err := bm.RunPacked(packed)
		if err != nil {
			return err
		}
		// Lane 0 of RandomLanes(seed) is Random(seed), so it must reproduce
		// the interpreter's benchmark trace exactly.
		lane0, err := bt.Lane(0)
		if err != nil {
			return err
		}
		match := tracesEqual(want, lane0)

		var interpNS, batchedNS, bRatio []float64
		for r := 0; r < simBenchRounds; r++ {
			interpT, err := timeRuns(func() error { _, err := s.Run(stim); return err })
			if err != nil {
				return fmt.Errorf("%s interpreter: %w", b.Name, err)
			}
			batchedT, err := timeRuns(func() error { _, err := bm.RunPacked(packed); return err })
			if err != nil {
				return fmt.Errorf("%s batched: %w", b.Name, err)
			}
			in := float64(interpT.Nanoseconds()) / simBenchCycles
			bt := float64(batchedT.Nanoseconds()) / (simBenchCycles * float64(simc.MaxLanes))
			interpNS = append(interpNS, in)
			batchedNS = append(batchedNS, bt)
			if bt > 0 {
				bRatio = append(bRatio, in/bt)
			}
		}

		row := SimBenchDesign{
			Design:                b.Name,
			Cycles:                simBenchCycles,
			OneBitFraction:        bp.OneBitFraction(),
			InterpNSPerCycle:      median(interpNS),
			BatchedNSPerLaneCycle: median(batchedNS),
			BatchedSpeedup:        median(bRatio),
			TracesMatch:           match,
		}
		rep.Designs = append(rep.Designs, row)
		rep.AllMatch = rep.AllMatch && match
		sumB += row.BatchedSpeedup
		if row.OneBitFraction >= rep.OneBitDesignFraction {
			if first1b || row.BatchedSpeedup < rep.MinBatchedSpeedup1b {
				rep.MinBatchedSpeedup1b = row.BatchedSpeedup
				first1b = false
			}
		}
	}
	if n := len(rep.Designs); n > 0 {
		rep.MeanBatchedSpeedup = sumB / float64(n)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&rep)
}
