// Package holes promotes the collector's flat uncovered-point strings into a
// structured model of coverage holes, the unit of work for directed stimulus
// generation (stimgen.CloseCoverage). A Hole names one uncovered bin —
// a branch arm never taken, a condition polarity never observed, a signal bit
// that never rose or fell, an FSM state or arc never visited — together with
// the RTL expression or signal bit that witnesses it, its cone-of-influence
// signature, and a rank ordering holes from likely-easy to likely-hard.
//
// The rank is a static heuristic, not a promise: a small input cone and a
// covered sibling (the other arm of the same branch, the opposite polarity of
// the same condition, the opposite edge of the same bit) both suggest the
// hole is reachable with little effort, so those holes are attempted first
// and the SAT budget is saved for the deep ones.
package holes

import (
	"fmt"
	"sort"

	"goldmine/internal/cone"
	"goldmine/internal/coverage"
	"goldmine/internal/rtl"
	"goldmine/internal/sim"
	"goldmine/internal/simc"
)

// Kind classifies coverage holes.
type Kind int

// Hole kinds. BranchArm covers line, branch and minterm points (all are
// "make this 1-bit expression true once"); CondTrue/CondFalse are the missing
// polarity of a condition or expression point.
const (
	BranchArm Kind = iota
	CondTrue
	CondFalse
	ToggleRise
	ToggleFall
	FSMState
	FSMArc
)

var kindNames = [...]string{
	"branch-arm", "cond-true", "cond-false",
	"toggle-rise", "toggle-fall", "fsm-state", "fsm-arc",
}

func (k Kind) String() string { return kindNames[k] }

// Hole is one uncovered coverage bin.
type Hole struct {
	Kind Kind

	// Point is set for BranchArm/CondTrue/CondFalse holes: the uncovered
	// instrumentation point whose 1-bit Expr must evaluate to 1 (or 0 for
	// CondFalse) on some settled cycle.
	Point rtl.Point

	// Sig/Bit are set for toggle holes: bit Bit of Sig must transition
	// 0→1 (ToggleRise) or 1→0 (ToggleFall) across adjacent cycles.
	Sig *rtl.Signal
	Bit int

	// Reg/From/To are set for FSM holes: Reg must reach state To
	// (FSMState), or step From→To across adjacent cycles (FSMArc).
	Reg      *rtl.Signal
	From, To uint64

	// Cone signature: the transitive cone of influence of the hole's
	// support signals, its sorted data inputs, and the bit totals that feed
	// the rank. Inputs is the focus set for fallback fuzzing and the
	// canonicalization variable order for SAT witnesses.
	Cone          map[*rtl.Signal]bool
	Inputs        []*rtl.Signal
	ConeSignals   int
	ConeInputBits int
	ConeStateBits int

	// SiblingCovered reports that a structurally adjacent bin is already
	// covered (other branch arm on the same line, opposite polarity,
	// opposite toggle edge, another state of the same FSM), which is weak
	// evidence this hole is reachable.
	SiblingCovered bool

	// SourceUnreached marks an FSMArc whose From state has itself never
	// been observed. Such arcs used to be skipped; they are now emitted as
	// sequence obligations ("reach From, then step to To" in one query) and
	// ranked after arcs whose source is already in hand.
	SourceUnreached bool

	// Rank orders holes ascending: lower is attempted first.
	Rank float64
}

// Key is a stable identifier for the hole, unique within a design. The
// closure loop uses keys to carry per-hole verdicts (e.g. "unreachable")
// across iterations in which the hole list is re-extracted.
func (h *Hole) Key() string {
	switch h.Kind {
	case BranchArm:
		return fmt.Sprintf("point#%d", h.Point.ID)
	case CondTrue, CondFalse:
		pol := "true"
		if h.Kind == CondFalse {
			pol = "false"
		}
		return fmt.Sprintf("point#%d/%s", h.Point.ID, pol)
	case ToggleRise:
		return fmt.Sprintf("toggle:%s[%d]/rise", h.Sig.Name, h.Bit)
	case ToggleFall:
		return fmt.Sprintf("toggle:%s[%d]/fall", h.Sig.Name, h.Bit)
	case FSMState:
		return fmt.Sprintf("fsm:%s=%d", h.Reg.Name, h.To)
	default:
		return fmt.Sprintf("fsm:%s:%d->%d", h.Reg.Name, h.From, h.To)
	}
}

// String renders a human-readable description.
func (h *Hole) String() string {
	switch h.Kind {
	case BranchArm:
		return fmt.Sprintf("%s %s", h.Kind, h.Point.String())
	case CondTrue, CondFalse:
		return fmt.Sprintf("%s %s", h.Kind, h.Point.String())
	case ToggleRise, ToggleFall:
		return fmt.Sprintf("%s %s[%d]", h.Kind, h.Sig.Name, h.Bit)
	case FSMState:
		return fmt.Sprintf("%s %s=%d", h.Kind, h.Reg.Name, h.To)
	default:
		return fmt.Sprintf("%s %s:%d->%d", h.Kind, h.Reg.Name, h.From, h.To)
	}
}

// JSON is the flat serialization of a hole for -holes-json.
type JSON struct {
	Key             string  `json:"key"`
	Kind            string  `json:"kind"`
	Expr            string  `json:"expr,omitempty"`
	Line            int     `json:"line,omitempty"`
	Desc            string  `json:"desc,omitempty"`
	Signal          string  `json:"signal,omitempty"`
	Bit             int     `json:"bit,omitempty"`
	From            uint64  `json:"from,omitempty"`
	To              uint64  `json:"to,omitempty"`
	ConeSignals     int     `json:"cone_signals"`
	ConeInputBits   int     `json:"cone_input_bits"`
	ConeStateBits   int     `json:"cone_state_bits"`
	SiblingCovered  bool    `json:"sibling_covered"`
	SourceUnreached bool    `json:"source_unreached,omitempty"`
	Rank            float64 `json:"rank"`
}

// JSON returns the serializable view of the hole.
func (h *Hole) JSON() JSON {
	j := JSON{
		Key:             h.Key(),
		Kind:            h.Kind.String(),
		ConeSignals:     h.ConeSignals,
		ConeInputBits:   h.ConeInputBits,
		ConeStateBits:   h.ConeStateBits,
		SiblingCovered:  h.SiblingCovered,
		SourceUnreached: h.SourceUnreached,
		Rank:            h.Rank,
	}
	switch h.Kind {
	case BranchArm, CondTrue, CondFalse:
		j.Expr = rtl.String(h.Point.Expr)
		j.Line = h.Point.Line
		j.Desc = h.Point.Desc
	case ToggleRise, ToggleFall:
		j.Signal = h.Sig.Name
		j.Bit = h.Bit
	case FSMState:
		j.Signal = h.Reg.Name
		j.To = h.To
	default:
		j.Signal = h.Reg.Name
		j.From = h.From
		j.To = h.To
	}
	return j
}

// FromCollector extracts, signs and ranks the holes left open by the
// collector's observations. The result is sorted ascending by rank with a
// deterministic tie-break, ready for directed generation.
func FromCollector(c *coverage.Collector) []*Hole {
	return FromState(c.State())
}

// FromState is FromCollector over an explicit snapshot.
func FromState(st coverage.State) []*Hole {
	d := st.Design
	var hs []*Hole

	// Instrumentation points. Sibling evidence: for branch points, another
	// covered branch point on the same source line (the other arm); for
	// condition/expression points, the opposite polarity of the same point.
	branchLineCovered := map[int]bool{}
	for i, p := range d.Cover.Points {
		if p.Kind == rtl.PointBranch && st.SeenTrue[i] {
			branchLineCovered[p.Line] = true
		}
	}
	for i, p := range d.Cover.Points {
		switch p.Kind {
		case rtl.PointLine, rtl.PointBranch, rtl.PointMinterm:
			if !st.SeenTrue[i] {
				hs = append(hs, &Hole{
					Kind: BranchArm, Point: p,
					SiblingCovered: p.Kind == rtl.PointBranch && branchLineCovered[p.Line],
				})
			}
		default: // condition, expression: need both polarities
			if !st.SeenTrue[i] {
				hs = append(hs, &Hole{
					Kind: CondTrue, Point: p, SiblingCovered: st.SeenFalse[i],
				})
			}
			if !st.SeenFalse[i] {
				hs = append(hs, &Hole{
					Kind: CondFalse, Point: p, SiblingCovered: st.SeenTrue[i],
				})
			}
		}
	}

	// Toggle bits. Sibling evidence: the opposite edge of the same bit.
	for i, s := range st.ToggleSigs {
		for b := 0; b < s.Width; b++ {
			if !st.Rise[i][b] {
				hs = append(hs, &Hole{
					Kind: ToggleRise, Sig: s, Bit: b, SiblingCovered: st.Fall[i][b],
				})
			}
			if !st.Fall[i][b] {
				hs = append(hs, &Hole{
					Kind: ToggleFall, Sig: s, Bit: b, SiblingCovered: st.Rise[i][b],
				})
			}
		}
	}

	// FSM states and arcs. Arc holes enumerate every named-state pair; an
	// arc out of a state never observed is not skipped but marked
	// SourceUnreached — directed generation turns it into one sequence
	// obligation ("reach From, then step to To") instead of needing the
	// state hole closed first. Sibling evidence: any other state / any arc
	// out of From.
	for i, f := range d.Cover.FSMs {
		for _, stv := range f.States {
			if !st.FSMSeen[i][stv] {
				hs = append(hs, &Hole{
					Kind: FSMState, Reg: f.Reg, To: stv,
					SiblingCovered: len(st.FSMSeen[i]) > 0,
				})
			}
		}
		for _, from := range f.States {
			outSeen := false
			for _, to := range f.States {
				if st.FSMTrans[i][[2]uint64{from, to}] {
					outSeen = true
					break
				}
			}
			for _, to := range f.States {
				if from == to || st.FSMTrans[i][[2]uint64{from, to}] {
					continue
				}
				hs = append(hs, &Hole{
					Kind: FSMArc, Reg: f.Reg, From: from, To: to,
					SiblingCovered:  outSeen,
					SourceUnreached: !st.FSMSeen[i][from],
				})
			}
		}
	}

	sign(d, hs)
	rank(hs)
	sort.SliceStable(hs, func(i, j int) bool {
		if hs[i].Rank != hs[j].Rank {
			return hs[i].Rank < hs[j].Rank
		}
		return hs[i].Key() < hs[j].Key()
	})
	return hs
}

// sign fills each hole's cone signature. Cones are memoized per support
// signal: designs have far fewer distinct signals than holes.
func sign(d *rtl.Design, hs []*Hole) {
	memo := map[*rtl.Signal]map[*rtl.Signal]bool{}
	coneOf := func(s *rtl.Signal) map[*rtl.Signal]bool {
		if c, ok := memo[s]; ok {
			return c
		}
		c := cone.Of(d, s)
		memo[s] = c
		return c
	}
	for _, h := range hs {
		union := map[*rtl.Signal]bool{}
		add := func(s *rtl.Signal) {
			for sig := range coneOf(s) {
				union[sig] = true
			}
		}
		switch h.Kind {
		case BranchArm, CondTrue, CondFalse:
			for s := range rtl.Support(h.Point.Expr, nil) {
				add(s)
			}
		case ToggleRise, ToggleFall:
			add(h.Sig)
		default:
			add(h.Reg)
		}
		h.Cone = union
		h.Inputs = cone.Inputs(d, union)
		h.ConeSignals = len(union)
		for _, s := range h.Inputs {
			h.ConeInputBits += s.Width
		}
		for _, s := range cone.StateVars(d, union) {
			h.ConeStateBits += s.Width
		}
	}
}

// rank scores holes ascending-easy-first. Structural size dominates (small
// cones solve fast and fuzz well), state bits weigh double (sequential depth
// is what makes reachability hard), kinds that need adjacent-frame pairs get
// a constant surcharge, and a covered sibling earns a discount.
func rank(hs []*Hole) {
	for _, h := range hs {
		r := float64(h.ConeInputBits + 2*h.ConeStateBits + h.ConeSignals)
		switch h.Kind {
		case ToggleRise, ToggleFall:
			r += 4 // two-frame obligation
		case FSMState:
			r += 8 // usually the deep targets
		case FSMArc:
			r += 12 // two-frame and deep
			if h.SourceUnreached {
				// The sequence obligation must first reach From: strictly
				// harder than an arc whose source is already in hand, and
				// often closed for free once the state hole is.
				r += 10
			}
		}
		if h.SiblingCovered {
			r *= 0.75
		}
		h.Rank = r
	}
}

// masked reads an environment width-masked: a trace row holds raw stored
// values, which may carry bits above a signal's width.
type masked struct{ rtl.Env }

func (e masked) Get(s *rtl.Signal) uint64 { return e.Env.Get(s) & rtl.Mask(s.Width) }

// Hit returns the first cycle index at which the trace exercises the hole,
// or -1. Adjacent-frame holes (toggles, FSM arcs) report the index of the
// second frame of the pair.
func (h *Hole) Hit(tr *sim.Trace) int {
	rows := [2]sim.RowEnv{{Trace: tr}, {Trace: tr}}
	prev, cur := &masked{&rows[0]}, &masked{&rows[1]}
	for t, row := range tr.Values {
		rows[0].Row, rows[1].Row = rows[1].Row, row
		switch h.Kind {
		case BranchArm, CondTrue:
			if rtl.Eval(h.Point.Expr, cur)&1 == 1 {
				return t
			}
		case CondFalse:
			if rtl.Eval(h.Point.Expr, cur)&1 == 0 {
				return t
			}
		case ToggleRise, ToggleFall:
			if t == 0 {
				continue
			}
			pb := (prev.Get(h.Sig) >> uint(h.Bit)) & 1
			cb := (cur.Get(h.Sig) >> uint(h.Bit)) & 1
			if h.Kind == ToggleRise && pb == 0 && cb == 1 {
				return t
			}
			if h.Kind == ToggleFall && pb == 1 && cb == 0 {
				return t
			}
		case FSMState:
			if cur.Get(h.Reg) == h.To {
				return t
			}
		default: // FSMArc
			if t == 0 {
				continue
			}
			if prev.Get(h.Reg) == h.From && cur.Get(h.Reg) == h.To {
				return t
			}
		}
	}
	return -1
}

// HitMask is Hit on a lane-parallel trace, one cycle at a time: it returns
// the lanes among those set in among that are live at cycle t (their
// stimulus is longer than t) and exercise the hole there. Lane l's bit is
// set exactly when Hit on bt.Lane(l) would see the hole at t, so the first
// cycle whose mask holds l is that lane's Hit. Every kind is a word
// operation over the packed row: toggle and FSM holes over their signal's
// bits, branch-arm and condition holes over their point's word. The trace's
// program must therefore be compiled with simc.BatchOptions.Points, or
// BatchTrace.Point panics on a branch-arm or condition hole.
func (h *Hole) HitMask(bt *simc.BatchTrace, t int, among uint64) uint64 {
	among &= bt.Live(t)
	if among == 0 {
		return 0
	}
	switch h.Kind {
	case BranchArm, CondTrue:
		return among & bt.Point(h.Point.ID, t)
	case CondFalse:
		return among &^ bt.Point(h.Point.ID, t)
	case ToggleRise, ToggleFall:
		if t == 0 {
			return 0
		}
		// A bit at or past the width reads zero in every lane, so it never
		// toggles.
		pb := simc.MatchLanes(bt.Column(h.Sig, t-1), h.Sig, h.Bit, 1)
		cb := simc.MatchLanes(bt.Column(h.Sig, t), h.Sig, h.Bit, 1)
		if h.Kind == ToggleRise {
			return among &^ pb & cb
		}
		return among & pb &^ cb
	case FSMState:
		return among & stateWord(bt, h.Reg, h.To, t)
	default: // FSMArc
		if t == 0 {
			return 0
		}
		return among & stateWord(bt, h.Reg, h.From, t-1) & stateWord(bt, h.Reg, h.To, t)
	}
}

// stateWord returns the lanes whose width-masked reg equals v at cycle t; a
// v with bits above the width matches no lane.
func stateWord(bt *simc.BatchTrace, reg *rtl.Signal, v uint64, t int) uint64 {
	if v&^rtl.Mask(reg.Width) != 0 {
		return 0
	}
	return simc.MatchLanes(bt.Column(reg, t), reg, -1, v)
}
