// Package mutate implements the systematic mutation-based fault injection of
// Section 7.4: an internal design signal is forced stuck-at-0 or stuck-at-1
// and the previously mined assertions are re-checked on the mutated design.
// Assertions that fail on the mutant detect ("cover") the injected fault.
package mutate

import (
	"fmt"
	"sort"

	"goldmine/internal/assertion"
	"goldmine/internal/mc"
	"goldmine/internal/monitor"
	"goldmine/internal/rtl"
	"goldmine/internal/sim"
	"goldmine/internal/simc"
	"goldmine/internal/telemetry"
)

// Fault is a stuck-at fault on a named signal. StuckAt1 false forces all bits
// to 0, true forces all bits to 1.
type Fault struct {
	Signal   string
	StuckAt1 bool
}

func (f Fault) String() string {
	v := 0
	if f.StuckAt1 {
		v = 1
	}
	return fmt.Sprintf("%s stuck-at-%d", f.Signal, v)
}

// Apply returns a mutated copy of the design with the fault injected. The
// original design is not modified (signal metadata is shared, expression maps
// are rebuilt).
func Apply(d *rtl.Design, f Fault) (*rtl.Design, error) {
	sig := d.Signal(f.Signal)
	if sig == nil {
		return nil, fmt.Errorf("mutate: no signal %q in %s", f.Signal, d.Name)
	}
	var val uint64
	if f.StuckAt1 {
		val = rtl.Mask(sig.Width)
	}
	stuck := rtl.NewConst(val, sig.Width)

	md := &rtl.Design{
		Name:    d.Name + "~" + f.String(),
		Signals: d.Signals,
		Clock:   d.Clock,
		Comb:    map[*rtl.Signal]rtl.Expr{},
		Next:    map[*rtl.Signal]rtl.Expr{},
		Cover:   d.Cover,
	}
	// The mutant shares Signals, so every signal keeps its ID and tables
	// indexed by ID serve both designs; rtl.Rebind below rebuilds the name
	// index and revalidates.
	for s, e := range d.Comb {
		md.Comb[s] = e
	}
	for s, e := range d.Next {
		md.Next[s] = e
	}

	switch {
	case sig.Kind == rtl.SigInput:
		// Inputs have no driver: replace every read of the signal.
		for s, e := range md.Comb {
			md.Comb[s] = replaceRef(e, sig, stuck)
		}
		for s, e := range md.Next {
			md.Next[s] = replaceRef(e, sig, stuck)
		}
	case sig.IsState:
		md.Next[sig] = stuck
		// The current-cycle value read by consumers still comes from the
		// register; forcing the next-state makes it stuck from cycle 1 on.
		// To make the fault effective in cycle 0 too, also rewrite reads.
		for s, e := range md.Comb {
			md.Comb[s] = replaceRef(e, sig, stuck)
		}
		for s, e := range md.Next {
			if s == sig {
				continue
			}
			md.Next[s] = replaceRef(e, sig, stuck)
		}
	default:
		md.Comb[sig] = stuck
	}
	if err := rtl.Rebind(md); err != nil {
		return nil, err
	}
	return md, nil
}

// replaceRef substitutes constant c for every read of sig in e.
func replaceRef(e rtl.Expr, sig *rtl.Signal, c rtl.Expr) rtl.Expr {
	switch x := e.(type) {
	case *rtl.Ref:
		if x.Sig == sig {
			return c
		}
		return x
	case *rtl.Const, nil:
		return e
	case *rtl.Unary:
		return &rtl.Unary{Op: x.Op, X: replaceRef(x.X, sig, c), W: x.W}
	case *rtl.Binary:
		return &rtl.Binary{Op: x.Op, A: replaceRef(x.A, sig, c), B: replaceRef(x.B, sig, c), W: x.W}
	case *rtl.Mux:
		return &rtl.Mux{
			Cond: replaceRef(x.Cond, sig, c),
			T:    replaceRef(x.T, sig, c),
			F:    replaceRef(x.F, sig, c),
			W:    x.W,
		}
	case *rtl.Select:
		return &rtl.Select{X: replaceRef(x.X, sig, c), Bit: x.Bit}
	case *rtl.Slice:
		return &rtl.Slice{X: replaceRef(x.X, sig, c), MSB: x.MSB, LSB: x.LSB}
	case *rtl.Concat:
		parts := make([]rtl.Expr, len(x.Parts))
		for i, p := range x.Parts {
			parts[i] = replaceRef(p, sig, c)
		}
		return rtl.NewConcat(parts)
	default:
		return e
	}
}

// AllFaults enumerates the full stuck-at fault universe of a design: every
// signal except the clock, stuck-at-0 then stuck-at-1, in name order. The
// deterministic order matters downstream — the corpus ranking oracle indexes
// kill sets by position in this list.
func AllFaults(d *rtl.Design) []Fault {
	names := make([]string, 0, len(d.Signals))
	for _, s := range d.Signals {
		if s.Name == d.Clock {
			continue
		}
		names = append(names, s.Name)
	}
	sort.Strings(names)
	out := make([]Fault, 0, 2*len(names))
	for _, n := range names {
		out = append(out, Fault{Signal: n, StuckAt1: false}, Fault{Signal: n, StuckAt1: true})
	}
	return out
}

// Detection reports how many assertions detect a fault.
type Detection struct {
	Fault    Fault
	Detected int // assertions that fail on the mutant
	Total    int
	// Detecting lists the indices of detecting assertions.
	Detecting []int
}

// SimCampaign is the simulation flavor of Campaign: instead of re-checking
// each assertion formally on a mutated design, it runs the stimulus on the
// bit-parallel batch simulator with up to 64 stuck-at faults pinned into
// separate lanes of one run, then evaluates the assertion monitors on the
// packed trace (monitor.Monitor.RunPacked). An assertion detects a fault when
// it fires at least one violation on that fault's lane. The design compiles
// once (all fault signals declared forceable), the monitor is built and the
// stimulus packed once, and faults are re-pinned between 64-lane chunks, so a
// whole campaign costs a handful of batched simulations regardless of the
// fault-list length. tel may be nil; when set, each chunk records a sim.batch
// span.
//
// When onActivation is non-nil, the fault-free replay of the same stimulus
// runs too: one unforced lane — a spare lane of the last chunk, or one more
// chunk when the faults fill every chunk — and each antecedent match on it is
// passed to onActivation as (assertion index, window-start cycle), in the
// order monitor.Monitor's OnActivation sees them when the stimulus replays on
// the interpreter. A nil onActivation runs no clean lane.
func SimCampaign(d *rtl.Design, asserts []*assertion.Assertion, faults []Fault, stim sim.Stimulus, tel *telemetry.Tracer, onActivation func(index, cycle int)) ([]Detection, error) {
	names := make([]string, 0, len(faults))
	seen := map[string]bool{}
	for _, f := range faults {
		if d.Signal(f.Signal) == nil {
			return nil, fmt.Errorf("mutate: no signal %q in %s", f.Signal, d.Name)
		}
		if !seen[f.Signal] {
			seen[f.Signal] = true
			names = append(names, f.Signal)
		}
	}
	mon, err := monitor.New(d, asserts)
	if err != nil {
		return nil, err
	}
	mon.OnActivation = onActivation
	chunks := (len(faults) + simc.MaxLanes - 1) / simc.MaxLanes
	if onActivation != nil && len(faults)%simc.MaxLanes == 0 {
		chunks++ // no spare lane: the clean lane gets a chunk of its own
	}
	p, err := simc.CompileBatch(d, simc.BatchOptions{Forceable: names})
	if err != nil {
		return nil, err
	}
	// Every lane carries the same stimulus; a lane left unforced runs the
	// fault-free design.
	ps, err := p.Broadcast(stim, simc.MaxLanes)
	if err != nil {
		return nil, err
	}
	m := simc.NewBatchMachine(p)
	out := make([]Detection, 0, len(faults))
	for k := 0; k < chunks; k++ {
		chunk := faults[min(k*simc.MaxLanes, len(faults)):min((k+1)*simc.MaxLanes, len(faults))]
		m.ClearForces()
		for l, f := range chunk {
			var v uint64
			if f.StuckAt1 {
				v = ^uint64(0) // SetForce masks to the signal's width
			}
			if err := m.SetForce(l, f.Signal, v); err != nil {
				return nil, err
			}
		}
		var clean uint64
		lanes := len(chunk)
		if onActivation != nil && k == chunks-1 {
			clean = 1 << uint(lanes)
			lanes++
		}
		sp := tel.Root("sim.batch",
			telemetry.String("design", d.Name),
			telemetry.Int("lanes", int64(lanes)),
			telemetry.Int("cycles", int64(len(stim))))
		bt, err := m.RunPacked(ps)
		sp.End()
		if err != nil {
			return nil, err
		}
		fired := mon.RunPacked(bt, clean)
		for l, f := range chunk {
			det := Detection{Fault: f, Total: len(asserts)}
			for i, mask := range fired {
				if mask>>uint(l)&1 == 1 {
					det.Detected++
					det.Detecting = append(det.Detecting, i)
				}
			}
			out = append(out, det)
		}
	}
	return out, nil
}

// Campaign checks every assertion against every fault, reproducing Table 2.
func Campaign(d *rtl.Design, asserts []*assertion.Assertion, faults []Fault, opts mc.Options) ([]Detection, error) {
	var out []Detection
	for _, f := range faults {
		md, err := Apply(d, f)
		if err != nil {
			return nil, err
		}
		checker := mc.NewWithOptions(md, opts)
		det := Detection{Fault: f, Total: len(asserts)}
		for i, a := range asserts {
			res, err := checker.Check(a)
			if err != nil {
				return nil, err
			}
			if res.Status == mc.StatusFalsified {
				det.Detected++
				det.Detecting = append(det.Detecting, i)
			}
		}
		out = append(out, det)
	}
	return out, nil
}
