package sat

import "goldmine/internal/telemetry"

// SolveCounters is the solver's telemetry hookup: cached counter pointers fed
// with per-solve deltas of the search statistics. One SolveCounters may be
// shared by any number of solvers (the counters are atomic); a single solver
// is still single-goroutine.
type SolveCounters struct {
	Solves       *telemetry.Counter
	Propagations *telemetry.Counter
	Conflicts    *telemetry.Counter
	Decisions    *telemetry.Counter
	Restarts     *telemetry.Counter
	Learned      *telemetry.Counter
	// TrailReused counts the assumption-trail literals a solve kept from the
	// previous solve on the same solver (Solver.TrailReused).
	TrailReused *telemetry.Counter
	// HeapLoads counts the variables loaded into the decision-order heap
	// (Solver.HeapLoads): over sat.decisions, the order work per decision.
	HeapLoads *telemetry.Counter
	// LearntDB tracks the learnt-clause database size after the most recent
	// solve (a gauge: reduceDB shrinks it, so a counter would mislead).
	LearntDB *telemetry.Gauge
}

// NewSolveCounters resolves the sat.* counters from a registry. Nil-safe: a
// nil registry yields a SolveCounters of nil counters (all adds no-op), and
// callers may equally leave Solver.Counters nil to skip the bookkeeping
// entirely.
func NewSolveCounters(reg *telemetry.Registry) *SolveCounters {
	return &SolveCounters{
		Solves:       reg.Counter("sat.solves"),
		Propagations: reg.Counter("sat.propagations"),
		Conflicts:    reg.Counter("sat.conflicts"),
		Decisions:    reg.Counter("sat.decisions"),
		Restarts:     reg.Counter("sat.restarts"),
		Learned:      reg.Counter("sat.learned"),
		TrailReused:  reg.Counter("sat.trail_reused"),
		HeapLoads:    reg.Counter("sat.heap_loads"),
		LearntDB:     reg.Gauge("sat.learnt_db"),
	}
}

// observe snapshots the statistics before a solve and returns the closure
// that records the deltas after it.
func (c *SolveCounters) observe(s *Solver) func() {
	p0, c0, d0, r0, l0, t0, h0 := s.Propagations, s.Conflicts, s.Decisions, s.Restarts, s.Learned, s.TrailReused, s.HeapLoads
	return func() {
		c.Solves.Add(1)
		c.Propagations.Add(s.Propagations - p0)
		c.Conflicts.Add(s.Conflicts - c0)
		c.Decisions.Add(s.Decisions - d0)
		c.Restarts.Add(s.Restarts - r0)
		c.Learned.Add(s.Learned - l0)
		c.TrailReused.Add(s.TrailReused - t0)
		c.HeapLoads.Add(s.HeapLoads - h0)
		c.LearntDB.Set(int64(len(s.learnts)))
	}
}
