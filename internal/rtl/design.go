package rtl

import (
	"fmt"
	"sort"
	"sync"
)

// SigKind classifies signals in a Design.
type SigKind int

// Signal kinds.
const (
	SigInput SigKind = iota
	SigOutput
	SigWire // internal combinational net
	SigReg  // sequential state element
)

func (k SigKind) String() string {
	switch k {
	case SigInput:
		return "input"
	case SigOutput:
		return "output"
	case SigWire:
		return "wire"
	default:
		return "reg"
	}
}

// Signal is an elaborated design signal.
type Signal struct {
	Name  string
	Width int
	Kind  SigKind
	// ID is the signal's position in its design's Signals. Tables indexed
	// by ID belong to that design (and its mutants, which share Signals);
	// Design.Owns tells a foreign signal apart.
	ID int
	// IsState marks sequential registers (may coincide with SigOutput for
	// output regs).
	IsState bool
	// Line is the declaring source line.
	Line int
}

func (s *Signal) String() string { return fmt.Sprintf("%s %s[%d]", s.Kind, s.Name, s.Width) }

// Design is an elaborated RTL module: pure dataflow plus registers.
type Design struct {
	Name string
	// Signals in declaration order.
	Signals []*Signal
	byName  map[string]*Signal

	// Clock is the name of the (single) clock signal, or "" for a purely
	// combinational design. The clock never appears in any expression.
	Clock string

	// Comb maps each non-state signal that is driven by logic to its
	// expression. Inputs and the clock have no entry.
	Comb map[*Signal]Expr

	// Next maps each state register to its next-state expression, evaluated
	// with current-cycle signal values and latched on the clock edge.
	Next map[*Signal]Expr

	// Cover holds the coverage instrumentation points recorded during
	// elaboration.
	Cover *CoverageInfo

	// combOrder is the lazily computed topological order, built once under
	// combMu so concurrent simulators/steppers over a shared Design can race
	// to first use safely. The published slice is immutable.
	combMu    sync.Mutex
	combOrder []*Signal
}

// Owns reports whether sig is this design's signal at position sig.ID, the
// check every ID-indexed table makes before it reads a slot: a signal of
// another elaboration has an ID too, but it names another design's slot.
func (d *Design) Owns(sig *Signal) bool {
	return uint(sig.ID) < uint(len(d.Signals)) && d.Signals[sig.ID] == sig
}

// Signal returns the signal named name, or nil.
func (d *Design) Signal(name string) *Signal { return d.byName[name] }

// MustSignal returns the named signal or panics; for tests and internal use
// after validation.
func (d *Design) MustSignal(name string) *Signal {
	s := d.byName[name]
	if s == nil {
		panic(fmt.Sprintf("rtl: design %s: no signal %q", d.Name, name))
	}
	return s
}

// Inputs returns the data inputs (excluding the clock) in declaration order.
func (d *Design) Inputs() []*Signal {
	var out []*Signal
	for _, s := range d.Signals {
		if s.Kind == SigInput && s.Name != d.Clock {
			out = append(out, s)
		}
	}
	return out
}

// Outputs returns the output signals in declaration order.
func (d *Design) Outputs() []*Signal {
	var out []*Signal
	for _, s := range d.Signals {
		if s.Kind == SigOutput {
			out = append(out, s)
		}
	}
	return out
}

// Registers returns the state elements in declaration order.
func (d *Design) Registers() []*Signal {
	var out []*Signal
	for _, s := range d.Signals {
		if s.IsState {
			out = append(out, s)
		}
	}
	return out
}

// StateBits returns the total number of state bits.
func (d *Design) StateBits() int {
	n := 0
	for _, s := range d.Registers() {
		n += s.Width
	}
	return n
}

// InputBits returns the total number of data input bits.
func (d *Design) InputBits() int {
	n := 0
	for _, s := range d.Inputs() {
		n += s.Width
	}
	return n
}

// CombOrder returns the combinational signals in dependency order: every
// signal appears after all non-state signals its expression reads. An error
// is returned for combinational cycles.
func (d *Design) CombOrder() ([]*Signal, error) {
	d.combMu.Lock()
	defer d.combMu.Unlock()
	if d.combOrder != nil {
		return d.combOrder, nil
	}
	// Kahn's algorithm over comb-driven signals.
	indeg := map[*Signal]int{}
	deps := map[*Signal][]*Signal{} // signal -> signals that read it
	for s, e := range d.Comb {
		if _, ok := indeg[s]; !ok {
			indeg[s] = 0
		}
		for dep := range Support(e, nil) {
			if _, isComb := d.Comb[dep]; isComb && !dep.IsState {
				deps[dep] = append(deps[dep], s)
				indeg[s]++
			}
		}
	}
	var ready []*Signal
	for s, n := range indeg {
		if n == 0 {
			ready = append(ready, s)
		}
	}
	// Deterministic order for reproducibility.
	sort.Slice(ready, func(i, j int) bool { return ready[i].Name < ready[j].Name })
	var order []*Signal
	for len(ready) > 0 {
		s := ready[0]
		ready = ready[1:]
		order = append(order, s)
		var unlocked []*Signal
		for _, t := range deps[s] {
			indeg[t]--
			if indeg[t] == 0 {
				unlocked = append(unlocked, t)
			}
		}
		sort.Slice(unlocked, func(i, j int) bool { return unlocked[i].Name < unlocked[j].Name })
		ready = append(ready, unlocked...)
	}
	if len(order) != len(indeg) {
		var cyc []string
		for s, n := range indeg {
			if n > 0 {
				cyc = append(cyc, s.Name)
			}
		}
		sort.Strings(cyc)
		return nil, fmt.Errorf("design %s: combinational cycle involving %v", d.Name, cyc)
	}
	d.combOrder = order
	return order, nil
}

// Validate performs structural checks: every signal's ID is its position in
// Signals, every driven or read signal is one of them, every output is
// driven, every register has a next-state function, no expression reads the
// clock, and the combinational logic is acyclic.
func (d *Design) Validate() error {
	for i, s := range d.Signals {
		if s.ID != i {
			return fmt.Errorf("design %s: signal %s at position %d has ID %d", d.Name, s.Name, i, s.ID)
		}
		switch {
		case s.Kind == SigOutput && !s.IsState:
			if _, ok := d.Comb[s]; !ok {
				return fmt.Errorf("design %s: output %s is undriven", d.Name, s.Name)
			}
		case s.IsState:
			if _, ok := d.Next[s]; !ok {
				return fmt.Errorf("design %s: register %s has no next-state function", d.Name, s.Name)
			}
		}
	}
	check := func(s *Signal, e Expr) error {
		if !d.Owns(s) {
			return fmt.Errorf("design %s: %s is driven but is not a signal of the design", d.Name, s.Name)
		}
		for sig := range Support(e, nil) {
			if !d.Owns(sig) {
				return fmt.Errorf("design %s: %s reads %s, which is not a signal of the design", d.Name, s.Name, sig.Name)
			}
			if sig.Name == d.Clock && d.Clock != "" {
				return fmt.Errorf("design %s: clock %s used as data", d.Name, d.Clock)
			}
		}
		return nil
	}
	for s, e := range d.Comb {
		if err := check(s, e); err != nil {
			return err
		}
	}
	for s, e := range d.Next {
		if err := check(s, e); err != nil {
			return err
		}
	}
	_, err := d.CombOrder()
	return err
}

// Rebind reconstructs the design's internal indices after its expression
// maps were rebuilt externally (e.g. by fault injection) and revalidates it.
func Rebind(d *Design) error {
	d.byName = map[string]*Signal{}
	for _, s := range d.Signals {
		d.byName[s.Name] = s
	}
	d.combOrder = nil
	return d.Validate()
}

// addSignal registers a new signal; it reports a conflict for duplicates.
func (d *Design) addSignal(s *Signal) error {
	if d.byName == nil {
		d.byName = map[string]*Signal{}
	}
	if _, dup := d.byName[s.Name]; dup {
		return fmt.Errorf("design %s: duplicate signal %q", d.Name, s.Name)
	}
	s.ID = len(d.Signals)
	d.Signals = append(d.Signals, s)
	d.byName[s.Name] = s
	return nil
}
