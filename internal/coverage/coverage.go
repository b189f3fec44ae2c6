// Package coverage measures the standard RTL coverage metrics reported in the
// paper's tables: line, branch, condition, expression, toggle and FSM
// coverage. It consumes the instrumentation points recorded by the rtl
// elaborator. RunSuiteCompiled, the production path, reads them as compiled
// point words of a 64-lane batch trace; Observe, fed by the interpreter's
// observer hook (RunSuite), is the oracle it is checked against.
package coverage

import (
	"fmt"
	"math/bits"
	"strings"

	"goldmine/internal/rtl"
	"goldmine/internal/sim"
	"goldmine/internal/simc"
)

// Collector accumulates coverage over one or more simulation runs.
type Collector struct {
	d *rtl.Design

	// Per instrumentation point: whether value 1 / value 0 was observed.
	seenTrue  []bool
	seenFalse []bool

	// Toggle coverage: per signal, per bit, rising/falling transitions seen.
	toggleSigs []*rtl.Signal
	rise, fall [][]bool
	prev       []uint64
	hasPrev    bool

	// FSM coverage: states observed per detected FSM register. fsmPrev is
	// the previous cycle's state, tracked separately from the toggle prev
	// storage so transition recording cannot depend on loop ordering.
	fsmSeen  []map[uint64]bool
	fsmTrans []map[[2]uint64]bool
	fsmPrev  []uint64

	// batch is RunSuiteCompiled's machine, compiled on first use and reused
	// by later calls (closure collects once per iteration).
	batch *simc.BatchMachine

	Cycles int
}

// New creates a collector for a design.
func New(d *rtl.Design) *Collector {
	ci := d.Cover
	c := &Collector{
		d:          d,
		seenTrue:   make([]bool, len(ci.Points)),
		seenFalse:  make([]bool, len(ci.Points)),
		toggleSigs: ci.ToggleSignals,
	}
	c.rise = make([][]bool, len(c.toggleSigs))
	c.fall = make([][]bool, len(c.toggleSigs))
	for i, s := range c.toggleSigs {
		c.rise[i] = make([]bool, s.Width)
		c.fall[i] = make([]bool, s.Width)
	}
	c.prev = make([]uint64, len(c.toggleSigs))
	c.fsmSeen = make([]map[uint64]bool, len(ci.FSMs))
	c.fsmTrans = make([]map[[2]uint64]bool, len(ci.FSMs))
	c.fsmPrev = make([]uint64, len(ci.FSMs))
	for i := range ci.FSMs {
		c.fsmSeen[i] = map[uint64]bool{}
		c.fsmTrans[i] = map[[2]uint64]bool{}
	}
	return c
}

// BeginRun marks a reset boundary: toggle and FSM transition tracking must
// not pair cycles across independent runs.
func (c *Collector) BeginRun() { c.hasPrev = false }

// Observe consumes one settled simulation cycle.
func (c *Collector) Observe(env rtl.Env) {
	c.Cycles++
	for i, p := range c.d.Cover.Points {
		if rtl.Eval(p.Expr, env)&1 == 1 {
			c.seenTrue[i] = true
		} else {
			c.seenFalse[i] = true
		}
	}
	for i, s := range c.toggleSigs {
		v := env.Get(s) & rtl.Mask(s.Width)
		if c.hasPrev {
			diff := v ^ c.prev[i]
			for b := 0; b < s.Width; b++ {
				if (diff>>uint(b))&1 == 1 {
					if (v>>uint(b))&1 == 1 {
						c.rise[i][b] = true
					} else {
						c.fall[i][b] = true
					}
				}
			}
		}
		c.prev[i] = v
	}
	for i, f := range c.d.Cover.FSMs {
		v := env.Get(f.Reg) & rtl.Mask(f.Reg.Width)
		if c.hasPrev {
			// Record the transition from the previous cycle's state.
			c.fsmTrans[i][[2]uint64{c.fsmPrev[i], v}] = true
		}
		c.fsmSeen[i][v] = true
		c.fsmPrev[i] = v
	}
	c.hasPrev = true
}

// RunSuite simulates every stimulus in the suite from reset on the
// sim.Simulator interpreter, collecting coverage across all of them. It is
// the oracle the tests and perfbench's output checks replay a suite on to
// confirm RunSuiteCompiled, which every production caller runs.
func (c *Collector) RunSuite(suite []sim.Stimulus) error {
	s, err := sim.New(c.d)
	if err != nil {
		return err
	}
	s.Observe(c.Observe)
	for _, stim := range suite {
		c.BeginRun()
		s.Reset()
		for _, iv := range stim {
			if err := s.Step(iv, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// RunSuiteCompiled is RunSuite on the 64-lane batch engine: the suite runs
// in chunks of up to simc.MaxLanes stimuli on the collector's machine, and
// each chunk is observed on its packed trace without transposing a lane.
// Observations are identical to RunSuite: the compiled point words are the
// points' values, and trace rows hold the raw values the interpreter's
// observer hook sees.
func (c *Collector) RunSuiteCompiled(suite []sim.Stimulus) error {
	if len(suite) == 0 {
		return nil
	}
	if _, err := c.Program(); err != nil {
		return err
	}
	for len(suite) > 0 {
		chunk := suite[:min(len(suite), simc.MaxLanes)]
		suite = suite[len(chunk):]
		ps, err := c.batch.Program().Pack(chunk)
		if err != nil {
			return err
		}
		bt, err := c.batch.RunPacked(ps)
		if err != nil {
			return err
		}
		c.observePacked(bt)
	}
	return nil
}

// Program returns the batch program RunSuiteCompiled runs on, compiled with
// simc.BatchOptions.Points on first use. Programs are immutable, so other
// machines may run it too.
func (c *Collector) Program() (*simc.BatchProgram, error) {
	if c.batch == nil {
		p, err := simc.CompileBatch(c.d, simc.BatchOptions{Points: true})
		if err != nil {
			return nil, err
		}
		c.batch = simc.NewBatchMachine(p)
	}
	return c.batch.Program(), nil
}

// observePacked is Observe on every row of every lane of a packed trace at
// once: each lane is one run from reset, and at cycle t only the lanes live
// there count. A toggle or FSM transition pairs cycles t-1 and t of one lane
// (a lane live at t is live at t-1). FSM values are gathered per live lane.
func (c *Collector) observePacked(bt *simc.BatchTrace) {
	c.hasPrev = false // each lane is its own run
	n := bt.Cycles()
	for t := 0; t < n; t++ {
		c.Cycles += bits.OnesCount64(bt.Live(t))
	}
	for i := range c.seenTrue {
		for t := 0; t < n && !(c.seenTrue[i] && c.seenFalse[i]); t++ {
			live, w := bt.Live(t), bt.Point(i, t)
			if live&w != 0 {
				c.seenTrue[i] = true
			}
			if live&^w != 0 {
				c.seenFalse[i] = true
			}
		}
	}
	for i, s := range c.toggleSigs {
		for t := 1; t < n; t++ {
			live := bt.Live(t)
			prev, cur := bt.Column(s, t-1), bt.Column(s, t)
			for b := 0; b < s.Width && b < len(cur); b++ {
				if live&^prev[b]&cur[b] != 0 {
					c.rise[i][b] = true
				}
				if live&prev[b]&^cur[b] != 0 {
					c.fall[i][b] = true
				}
			}
		}
	}
	for i, f := range c.d.Cover.FSMs {
		var state [simc.MaxLanes]uint64 // each lane's value at t-1
		mask := rtl.Mask(f.Reg.Width)
		for t := 0; t < n; t++ {
			col := bt.Column(f.Reg, t)
			for live := bt.Live(t); live != 0; live &= live - 1 {
				l := bits.TrailingZeros64(live)
				v := simc.LaneValue(col, l) & mask
				c.fsmSeen[i][v] = true
				if t > 0 {
					c.fsmTrans[i][[2]uint64{state[l], v}] = true
				}
				state[l] = v
			}
		}
	}
}

// Metric is covered/total with a percentage view.
type Metric struct {
	Covered, Total int
}

// Pct returns the percentage (100 for an empty denominator).
func (m Metric) Pct() float64 {
	if m.Total == 0 {
		return 100
	}
	return 100 * float64(m.Covered) / float64(m.Total)
}

// Defined reports whether the metric has anything to cover.
func (m Metric) Defined() bool { return m.Total > 0 }

func (m Metric) String() string {
	if !m.Defined() {
		return "X"
	}
	return fmt.Sprintf("%.2f%%", m.Pct())
}

// Report is the coverage summary across all metrics.
type Report struct {
	Line, Branch, Cond, Expr, Toggle, FSM Metric
	Cycles                                int
}

// Report computes the current coverage summary.
func (c *Collector) Report() Report {
	var r Report
	r.Cycles = c.Cycles
	for i, p := range c.d.Cover.Points {
		var m *Metric
		var covered bool
		switch p.Kind {
		case rtl.PointLine:
			m, covered = &r.Line, c.seenTrue[i]
		case rtl.PointBranch:
			m, covered = &r.Branch, c.seenTrue[i]
		case rtl.PointCondition:
			m, covered = &r.Cond, c.seenTrue[i] && c.seenFalse[i]
		case rtl.PointMinterm:
			m, covered = &r.Expr, c.seenTrue[i]
		default:
			m, covered = &r.Expr, c.seenTrue[i] && c.seenFalse[i]
		}
		m.Total++
		if covered {
			m.Covered++
		}
	}
	for i, s := range c.toggleSigs {
		for b := 0; b < s.Width; b++ {
			r.Toggle.Total += 2
			if c.rise[i][b] {
				r.Toggle.Covered++
			}
			if c.fall[i][b] {
				r.Toggle.Covered++
			}
		}
	}
	for i, f := range c.d.Cover.FSMs {
		r.FSM.Total += len(f.States)
		for _, st := range f.States {
			if c.fsmSeen[i][st] {
				r.FSM.Covered++
			}
		}
	}
	return r
}

// State is a read-only snapshot of the collector's raw observations, the
// input to structured hole extraction (internal/holes). All slices and maps
// are deep copies: the collector may keep observing after the snapshot.
type State struct {
	Design *rtl.Design
	// SeenTrue/SeenFalse index rtl.CoverageInfo.Points.
	SeenTrue, SeenFalse []bool
	// ToggleSigs indexes Rise/Fall; Rise[i][b] reports a 0→1 transition
	// observed on bit b of ToggleSigs[i].
	ToggleSigs []*rtl.Signal
	Rise, Fall [][]bool
	// FSMSeen/FSMTrans index rtl.CoverageInfo.FSMs; FSMTrans keys are
	// {from, to} state pairs observed on adjacent cycles of one run.
	FSMSeen  []map[uint64]bool
	FSMTrans []map[[2]uint64]bool
	Cycles   int
}

// State snapshots the collector's observations.
func (c *Collector) State() State {
	st := State{
		Design:     c.d,
		SeenTrue:   append([]bool(nil), c.seenTrue...),
		SeenFalse:  append([]bool(nil), c.seenFalse...),
		ToggleSigs: append([]*rtl.Signal(nil), c.toggleSigs...),
		Rise:       make([][]bool, len(c.rise)),
		Fall:       make([][]bool, len(c.fall)),
		FSMSeen:    make([]map[uint64]bool, len(c.fsmSeen)),
		FSMTrans:   make([]map[[2]uint64]bool, len(c.fsmTrans)),
		Cycles:     c.Cycles,
	}
	for i := range c.rise {
		st.Rise[i] = append([]bool(nil), c.rise[i]...)
		st.Fall[i] = append([]bool(nil), c.fall[i]...)
	}
	for i := range c.fsmSeen {
		st.FSMSeen[i] = make(map[uint64]bool, len(c.fsmSeen[i]))
		for k, v := range c.fsmSeen[i] {
			st.FSMSeen[i][k] = v
		}
		st.FSMTrans[i] = make(map[[2]uint64]bool, len(c.fsmTrans[i]))
		for k, v := range c.fsmTrans[i] {
			st.FSMTrans[i][k] = v
		}
	}
	return st
}

// PointCovered reports whether instrumentation point i is covered under its
// kind's covering rule (condition/expression points need both polarities).
func (c *Collector) PointCovered(i int) bool {
	p := c.d.Cover.Points[i]
	if p.Kind == rtl.PointCondition || p.Kind == rtl.PointExpression {
		return c.seenTrue[i] && c.seenFalse[i]
	}
	return c.seenTrue[i]
}

// String renders the report as a one-line summary.
func (r Report) String() string {
	parts := []string{
		"line=" + r.Line.String(),
		"branch=" + r.Branch.String(),
		"cond=" + r.Cond.String(),
		"expr=" + r.Expr.String(),
		"toggle=" + r.Toggle.String(),
		"fsm=" + r.FSM.String(),
	}
	return strings.Join(parts, " ") + fmt.Sprintf(" (%d cycles)", r.Cycles)
}
