// Package sim provides a two-valued, cycle-accurate interpreter for
// elaborated rtl.Designs. It is the "Data Generator" of the GoldMine flow:
// it applies input stimulus cycle by cycle, evaluates the combinational
// expressions in dependency order, latches next-state values on the implicit
// clock edge, and records complete per-cycle traces of every signal. Per-cycle
// observer hooks let the coverage engine watch the same evaluation.
package sim

import (
	"fmt"
	"sort"

	"goldmine/internal/rtl"
	"goldmine/internal/telemetry"
)

// InputVec assigns values to (a subset of) the design's data inputs for one
// cycle. Unassigned inputs default to zero.
type InputVec map[string]uint64

// Clone returns a deep copy of the vector.
func (v InputVec) Clone() InputVec {
	c := make(InputVec, len(v))
	for k, x := range v {
		c[k] = x
	}
	return c
}

// Stimulus is a sequence of per-cycle input vectors.
type Stimulus []InputVec

// Clone deep-copies the stimulus.
func (st Stimulus) Clone() Stimulus {
	c := make(Stimulus, len(st))
	for i, v := range st {
		c[i] = v.Clone()
	}
	return c
}

// Trace records the value of every design signal at every simulated cycle.
// Values[i][j] is the value of Signals[j] during cycle i (after combinational
// settling, before the clock edge).
type Trace struct {
	Signals []*rtl.Signal
	Values  [][]uint64
	// cols is the ID→column table: cols[sig.ID] is sig's column. The
	// clock's entry is 0, a column that Col's ownership check refuses it.
	cols []int
}

// NewTrace creates an empty trace over the design's signals (excluding the
// clock), ordered deterministically by name.
func NewTrace(d *rtl.Design) *Trace {
	var sigs []*rtl.Signal
	for _, s := range d.Signals {
		if s.Name == d.Clock {
			continue
		}
		sigs = append(sigs, s)
	}
	sort.Slice(sigs, func(i, j int) bool { return sigs[i].Name < sigs[j].Name })
	cols := make([]int, len(d.Signals))
	for j, s := range sigs {
		cols[s.ID] = j
	}
	return &Trace{Signals: sigs, cols: cols}
}

// Cycles returns the number of recorded cycles.
func (t *Trace) Cycles() int { return len(t.Values) }

// Col returns sig's column, or -1 when it has none: the clock, or a signal
// of another design (its ID names some other signal's slot here).
func (t *Trace) Col(sig *rtl.Signal) int {
	if uint(sig.ID) < uint(len(t.cols)) {
		if j := t.cols[sig.ID]; j < len(t.Signals) && t.Signals[j] == sig {
			return j
		}
	}
	return -1
}

// Column returns the column index of a signal name, or -1. Columns are
// sorted by name.
func (t *Trace) Column(name string) int {
	j := sort.Search(len(t.Signals), func(j int) bool { return t.Signals[j].Name >= name })
	if j < len(t.Signals) && t.Signals[j].Name == name {
		return j
	}
	return -1
}

// RowEnv is an rtl.Env over one trace row: Get reads a signal's raw
// recorded value through the ID→column table. Signals without a column (the
// clock, another design's signals) read zero, as in the interpreter.
type RowEnv struct {
	Trace *Trace
	Row   []uint64
}

// Get returns sig's raw value in the row.
func (e *RowEnv) Get(sig *rtl.Signal) uint64 {
	if j := e.Trace.Col(sig); j >= 0 {
		return e.Row[j]
	}
	return 0
}

// Value returns the value of signal name at cycle c.
func (t *Trace) Value(c int, name string) (uint64, error) {
	i := t.Column(name)
	if i < 0 {
		return 0, fmt.Errorf("trace has no signal %q", name)
	}
	if c < 0 || c >= len(t.Values) {
		return 0, fmt.Errorf("cycle %d out of range (0..%d)", c, len(t.Values)-1)
	}
	return t.Values[c][i], nil
}

// Append adds the rows of other to t. Both traces must be over the same
// elaboration of the same design: signal ordering, names and widths must all
// agree. The width check matters because two elaborations of "the same"
// module can legally disagree on a bus width (parameter overrides, fault
// rewrites); silently merging such traces would feed the miner columns whose
// bit semantics differ row to row.
func (t *Trace) Append(other *Trace) error {
	if len(t.Signals) != len(other.Signals) {
		return fmt.Errorf("trace signal count mismatch: %d vs %d", len(t.Signals), len(other.Signals))
	}
	for i := range t.Signals {
		if t.Signals[i].Name != other.Signals[i].Name {
			return fmt.Errorf("trace signal mismatch at %d: %s vs %s", i, t.Signals[i].Name, other.Signals[i].Name)
		}
		if t.Signals[i].Width != other.Signals[i].Width {
			return fmt.Errorf("trace signal %s width mismatch: %d vs %d (traces come from differently-elaborated designs)",
				t.Signals[i].Name, t.Signals[i].Width, other.Signals[i].Width)
		}
	}
	t.Values = append(t.Values, other.Values...)
	return nil
}

// values is the simulator's environment: every signal's raw value, indexed
// by ID. A signal of another design reads zero.
type values struct {
	d *rtl.Design
	v []uint64
}

func (e *values) Get(sig *rtl.Signal) uint64 {
	if e.d.Owns(sig) {
		return e.v[sig.ID]
	}
	return 0
}

// pin is one signal's stuck-at override.
type pin struct {
	v  uint64
	on bool
}

// Simulator steps an elaborated design cycle by cycle.
type Simulator struct {
	d     *rtl.Design
	vals  values
	order []*rtl.Signal
	// inputs are the data inputs (clock excluded), precomputed so Step
	// zeroes them directly instead of scanning every design signal.
	inputs []*rtl.Signal
	// nextSigs/nextBuf are the registers with next-state functions and a
	// persistent evaluation buffer, so the clock edge reuses one slice
	// instead of allocating a map per cycle.
	nextSigs []*rtl.Signal
	nextBuf  []uint64
	// forces pins signals to constant values by ID (stuck-at semantics for
	// fault regression); nil when nothing was forced since ClearForces.
	forces []pin
	// observers are invoked once per cycle after combinational settling.
	observers []func(env rtl.Env)
	cycle     int
	// Cycles, when set, counts every simulated cycle into a telemetry
	// counter (shared across simulators; a nil counter no-ops).
	Cycles *telemetry.Counter
}

// New creates a simulator in the reset state (all registers zero).
func New(d *rtl.Design) (*Simulator, error) {
	order, err := d.CombOrder()
	if err != nil {
		return nil, err
	}
	s := &Simulator{d: d, order: order, vals: values{d: d, v: make([]uint64, len(d.Signals))}}
	s.inputs = d.Inputs()
	for reg := range d.Next {
		s.nextSigs = append(s.nextSigs, reg)
	}
	sort.Slice(s.nextSigs, func(i, j int) bool { return s.nextSigs[i].Name < s.nextSigs[j].Name })
	s.nextBuf = make([]uint64, len(s.nextSigs))
	s.Reset()
	return s, nil
}

// Design returns the simulated design.
func (s *Simulator) Design() *rtl.Design { return s.d }

// Reset zeroes all state and inputs. Matches the formal engine's initial
// state (all registers zero).
func (s *Simulator) Reset() {
	clear(s.vals.v)
	s.cycle = 0
}

// Observe registers a per-cycle hook, invoked after combinational settling
// with the complete environment for the cycle.
func (s *Simulator) Observe(fn func(env rtl.Env)) {
	s.observers = append(s.observers, fn)
}

// Cycle returns the number of completed cycles since reset.
func (s *Simulator) Cycle() int { return s.cycle }

// Peek returns the current value of a signal.
func (s *Simulator) Peek(name string) (uint64, error) {
	sig := s.d.Signal(name)
	if sig == nil {
		return 0, fmt.Errorf("no signal %q", name)
	}
	return s.vals.v[sig.ID] & rtl.Mask(sig.Width), nil
}

// Force pins a signal to a constant value (masked to the signal's width) from
// the next settled cycle onward: readers and the recorded trace both see the
// forced value, giving stuck-at semantics for fault regression. The clock
// cannot be forced.
func (s *Simulator) Force(name string, v uint64) error {
	sig := s.d.Signal(name)
	if sig == nil {
		return fmt.Errorf("force targets unknown signal %q", name)
	}
	if sig.Name == s.d.Clock {
		return fmt.Errorf("force targets clock %q", name)
	}
	if s.forces == nil {
		s.forces = make([]pin, len(s.d.Signals))
	}
	s.forces[sig.ID] = pin{v & rtl.Mask(sig.Width), true}
	return nil
}

// Unforce releases a forced signal; unknown or unforced names are no-ops.
func (s *Simulator) Unforce(name string) {
	sig := s.d.Signal(name)
	if sig != nil && s.forces != nil {
		s.forces[sig.ID] = pin{}
	}
}

// ClearForces releases all forced signals.
func (s *Simulator) ClearForces() {
	s.forces = nil
}

// Step applies one input vector, settles combinational logic, invokes
// observers, records into trace (if non-nil), and advances the clock.
func (s *Simulator) Step(in InputVec, trace *Trace) error {
	// Zero all data inputs, then apply the vector (unassigned inputs are 0).
	vals := s.vals.v
	for _, sig := range s.inputs {
		vals[sig.ID] = 0
	}
	for name, v := range in {
		sig := s.d.Signal(name)
		if sig == nil {
			return fmt.Errorf("stimulus drives unknown signal %q", name)
		}
		if sig.Kind != rtl.SigInput {
			return fmt.Errorf("stimulus drives non-input signal %q", name)
		}
		if sig.Name == s.d.Clock {
			return fmt.Errorf("stimulus drives clock %q", name)
		}
		vals[sig.ID] = v & rtl.Mask(sig.Width)
	}
	if s.forces == nil {
		// Fast path: no stuck-at overrides, settle in dependency order.
		for _, sig := range s.order {
			vals[sig.ID] = rtl.Eval(s.d.Comb[sig], &s.vals)
		}
	} else {
		// Pin non-combinational signals (inputs, registers) before settling so
		// downstream logic reads the forced value; combinational signals are
		// pinned in place of their driver during the settle pass.
		for id, f := range s.forces {
			if f.on && s.d.Comb[s.d.Signals[id]] == nil {
				vals[id] = f.v
			}
		}
		for _, sig := range s.order {
			if f := s.forces[sig.ID]; f.on {
				vals[sig.ID] = f.v
				continue
			}
			vals[sig.ID] = rtl.Eval(s.d.Comb[sig], &s.vals)
		}
	}
	// Observe and record the settled cycle.
	for _, fn := range s.observers {
		fn(&s.vals)
	}
	if trace != nil {
		row := make([]uint64, len(trace.Signals))
		for i, sig := range trace.Signals {
			row[i] = s.vals.Get(sig)
		}
		trace.Values = append(trace.Values, row)
	}
	// Clock edge: latch next state (two-phase via the persistent buffer).
	for i, reg := range s.nextSigs {
		s.nextBuf[i] = rtl.Eval(s.d.Next[reg], &s.vals)
	}
	for i, reg := range s.nextSigs {
		vals[reg.ID] = s.nextBuf[i]
	}
	s.cycle++
	s.Cycles.Inc()
	return nil
}

// Run resets the simulator and applies the stimulus, returning the trace.
func (s *Simulator) Run(stim Stimulus) (*Trace, error) {
	s.Reset()
	trace := NewTrace(s.d)
	for _, in := range stim {
		if err := s.Step(in, trace); err != nil {
			return nil, err
		}
	}
	return trace, nil
}

// Simulate is a convenience helper: build a simulator and run the stimulus.
func Simulate(d *rtl.Design, stim Stimulus) (*Trace, error) {
	s, err := New(d)
	if err != nil {
		return nil, err
	}
	return s.Run(stim)
}
