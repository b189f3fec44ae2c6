// Package monitor implements runtime assertion checking: mined assertions
// attach to a simulator as observers and are evaluated on every window of
// live simulation, the way traditional testbench monitors consume SVA. The
// paper's conclusion positions the mined assertions exactly this way — as
// regression monitors in a validation environment — and the Section 7.4
// fault experiment uses them as the regression vehicle. RunPacked evaluates
// the same suite on a 64-lane simc.BatchTrace as lane masks, which is how
// fault campaigns run it; the scalar Observe path is its reference.
package monitor

import (
	"fmt"
	"math/bits"

	"goldmine/internal/assertion"
	"goldmine/internal/rtl"
	"goldmine/internal/sim"
	"goldmine/internal/simc"
)

// Violation records one assertion failure during simulation.
type Violation struct {
	// Assertion index into the monitor's suite.
	Index int
	// Cycle is the window-start cycle of the violation.
	Cycle int
}

// Stats aggregates per-assertion activity.
type Stats struct {
	// Activations counts windows where the antecedent matched.
	Activations int
	// Violations counts antecedent matches with a failing consequent.
	Violations int
}

// Monitor evaluates a suite of assertions over a sliding window of
// simulation cycles.
type Monitor struct {
	d     *rtl.Design
	suite []*assertion.Assertion

	// resolved propositions per assertion.
	ants  [][]resolvedProp
	cons  []resolvedProp
	depth int // window depth = max proposition offset + 1

	// ring buffer of the last `depth` cycle snapshots, one value per sigs
	// entry.
	ring [][]uint64
	sigs []*rtl.Signal
	seen int // cycles observed since reset

	// props lists the distinct (signal, bit, value) propositions of the
	// suite. RunPacked keeps their lane masks for the last depth cycles in
	// packedRing, one row of len(props) words per cycle, each row stored
	// twice so that every window is depth contiguous rows. Within a window
	// a proposition is the word at offset*len(props)+pid: antKeys and
	// consKeys hold these per assertion.
	props      []packedProp
	antKeys    [][]int
	consKeys   []int
	packedRing []uint64

	stats      []Stats
	violations []Violation
	// MaxViolations bounds the recorded violation list (0 = 1000).
	MaxViolations int
	// OnActivation, when non-nil, receives every antecedent match as
	// (assertion index, window-start cycle). The corpus scoring oracle uses
	// it to record each assertion's temporal coverage contribution; leave
	// nil to keep the per-window cost at two counter bumps.
	OnActivation func(index, cycle int)
}

// resolvedProp is one proposition of the suite: slot indexes the monitor's
// sigs (the scalar ring's columns), pid its props (what it tests).
type resolvedProp struct {
	slot   int
	pid    int
	offset int
}

// packedProp is a distinct (signal, bit, value) proposition, offset aside.
type packedProp struct {
	sig   *rtl.Signal
	bit   int    // -1 for the whole signal
	value uint64 // masked to the signal width, or to one bit
}

// New builds a monitor for the assertion suite on a design. Every
// proposition must name a design signal at an offset in
// 0..assertion.MaxOffset; the window spans the largest offset of any
// proposition, antecedent or consequent.
func New(d *rtl.Design, suite []*assertion.Assertion) (*Monitor, error) {
	m := &Monitor{
		d:     d,
		suite: suite,
		stats: make([]Stats, len(suite)),
	}
	slots := make([]int, len(d.Signals)) // by ID: ring column + 1, 0 = none
	pids := map[packedProp]int{}
	resolve := func(p assertion.Prop) (resolvedProp, error) {
		sig := d.Signal(p.Signal)
		if sig == nil {
			return resolvedProp{}, fmt.Errorf("monitor: unknown signal %q", p.Signal)
		}
		if slots[sig.ID] == 0 {
			m.sigs = append(m.sigs, sig)
			slots[sig.ID] = len(m.sigs)
		}
		slot := slots[sig.ID] - 1
		pp := packedProp{sig: sig, bit: p.Bit, value: p.Value}
		if p.Bit < 0 {
			pp.bit = -1
			pp.value &= rtl.Mask(sig.Width)
		} else {
			pp.value &= 1
		}
		pid, ok := pids[pp]
		if !ok {
			pid = len(m.props)
			pids[pp] = pid
			m.props = append(m.props, pp)
		}
		if p.Offset+1 > m.depth {
			m.depth = p.Offset + 1
		}
		return resolvedProp{slot: slot, pid: pid, offset: p.Offset}, nil
	}
	for _, a := range suite {
		if err := a.CheckOffsets(); err != nil {
			return nil, fmt.Errorf("monitor: %w", err)
		}
		var ants []resolvedProp
		for _, p := range a.Antecedent {
			rp, err := resolve(p)
			if err != nil {
				return nil, err
			}
			ants = append(ants, rp)
		}
		cp, err := resolve(a.Consequent)
		if err != nil {
			return nil, err
		}
		m.ants = append(m.ants, ants)
		m.cons = append(m.cons, cp)
	}
	if m.depth == 0 {
		m.depth = 1
	}
	m.ring = make([][]uint64, m.depth)
	for i := range m.ring {
		m.ring[i] = make([]uint64, len(m.sigs))
	}
	key := func(p resolvedProp) int { return p.offset*len(m.props) + p.pid }
	for ai, ants := range m.ants {
		keys := make([]int, len(ants))
		for i, p := range ants {
			keys[i] = key(p)
		}
		m.antKeys = append(m.antKeys, keys)
		m.consKeys = append(m.consKeys, key(m.cons[ai]))
	}
	return m, nil
}

// BeginRun clears the sliding window at a reset boundary: call it before
// each reset so windows never straddle independent runs.
func (m *Monitor) BeginRun() { m.seen = 0 }

// Observe consumes one settled simulation cycle.
func (m *Monitor) Observe(env rtl.Env) {
	slot := m.seen % m.depth
	for i, sig := range m.sigs {
		m.ring[slot][i] = env.Get(sig) & rtl.Mask(sig.Width)
	}
	m.advance()
}

// advance evaluates the assertion windows after a new cycle has been written
// into the ring buffer at slot seen%depth.
func (m *Monitor) advance() {
	m.seen++
	if m.seen < m.depth {
		return // window not yet full
	}
	// The completed window starts depth-1 cycles ago.
	start := m.seen - m.depth
	for ai := range m.suite {
		match := true
		for _, p := range m.ants[ai] {
			if !m.holds(start, p) {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		m.record(ai, start, !m.holds(start, m.cons[ai]))
	}
}

// record books one antecedent match of assertion ai in the window starting
// at start, and its violation when violated.
func (m *Monitor) record(ai, start int, violated bool) {
	m.stats[ai].Activations++
	if m.OnActivation != nil {
		m.OnActivation(ai, start)
	}
	if !violated {
		return
	}
	m.stats[ai].Violations++
	maxV := m.MaxViolations
	if maxV <= 0 {
		maxV = 1000
	}
	if len(m.violations) < maxV {
		m.violations = append(m.violations, Violation{Index: ai, Cycle: start})
	}
}

// holds reports whether the proposition holds at window-start cycle +
// offset, read from the ring buffer.
func (m *Monitor) holds(start int, p resolvedProp) bool {
	v, pp := m.ring[(start+p.offset)%m.depth][p.slot], m.props[p.pid]
	if pp.bit >= 0 {
		v = (v >> uint(pp.bit)) & 1
	}
	return v == pp.value
}

// RunPacked evaluates the suite on every complete window of every live lane
// of a lane-parallel trace, without transposing a lane: per window cycle it
// computes each distinct proposition's lane-equality mask once, and per
// window and assertion the antecedent mask is the AND of its propositions'
// masks and the violation mask the antecedent mask minus the consequent's.
// A lane's window starting at s counts when the lane is live at its last
// cycle, s+depth-1. It returns, per assertion, the lanes in which the
// assertion fired at least one violation.
//
// The lanes of observe are also booked as if each had been replayed through
// Observe after BeginRun: their activations and violations add to
// AssertionStats, the violation list and OnActivation, in window order, then
// assertion order, then lane order. With one lane observed, the booking is
// exactly that lane's scalar replay.
func (m *Monitor) RunPacked(bt *simc.BatchTrace, observe uint64) []uint64 {
	np := len(m.props)
	if len(m.packedRing) != 2*m.depth*np {
		m.packedRing = make([]uint64, 2*m.depth*np)
	}
	fired := make([]uint64, len(m.suite))
	for c := 0; c < bt.Cycles(); c++ {
		live := bt.Live(c)
		if live == 0 {
			break // lanes only ever end, so no later cycle is live either
		}
		slot := c % m.depth
		row := m.packedRing[slot*np : (slot+1)*np]
		// MatchLanes reads width-masked, as the scalar ring does.
		for i, pp := range m.props {
			row[i] = simc.MatchLanes(bt.Column(pp.sig, c), pp.sig, pp.bit, pp.value)
		}
		copy(m.packedRing[(slot+m.depth)*np:], row)
		start := c - m.depth + 1
		if start < 0 {
			continue // window not yet full
		}
		win := m.packedRing[start%m.depth*np:]
		for ai, keys := range m.antKeys {
			act := live
			for _, k := range keys {
				if act &= win[k]; act == 0 {
					break
				}
			}
			if act == 0 {
				continue
			}
			viol := act &^ win[m.consKeys[ai]]
			fired[ai] |= viol
			for obs := act & observe; obs != 0; obs &= obs - 1 {
				m.record(ai, start, viol>>uint(bits.TrailingZeros64(obs))&1 == 1)
			}
		}
	}
	return fired
}

// Violations returns the recorded failures.
func (m *Monitor) Violations() []Violation { return m.violations }

// AssertionStats returns per-assertion activation/violation counts.
func (m *Monitor) AssertionStats() []Stats { return append([]Stats(nil), m.stats...) }

// Clean reports whether no assertion fired a violation.
func (m *Monitor) Clean() bool { return len(m.violations) == 0 }

// VacuousCount counts assertions whose antecedent never activated — useful
// to gauge how much of the suite a regression actually exercises.
func (m *Monitor) VacuousCount() int {
	n := 0
	for _, st := range m.stats {
		if st.Activations == 0 {
			n++
		}
	}
	return n
}

// RunSuite resets and replays each stimulus on the sim.Simulator
// interpreter with the monitor attached through Observe: the scalar
// reference the tests check RunPacked against.
func (m *Monitor) RunSuite(suite []sim.Stimulus) error {
	s, err := sim.New(m.d)
	if err != nil {
		return err
	}
	s.Observe(m.Observe)
	for _, stim := range suite {
		m.BeginRun()
		s.Reset()
		for _, iv := range stim {
			if err := s.Step(iv, nil); err != nil {
				return err
			}
		}
	}
	return nil
}
