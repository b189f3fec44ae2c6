package netlist

import (
	"fmt"
	"sort"

	"goldmine/internal/rtl"
)

// Synthesize bit-blasts an elaborated design into an AIG: inputs and
// registers become input/latch nodes, combinational expressions become AND
// trees, and register next-state functions drive the latches.
func Synthesize(d *rtl.Design) (*AIG, error) {
	g := New()
	syn := &synth{g: g, d: d, sigBits: make([]Word, len(d.Signals))}

	// Inputs (deterministic order).
	for _, in := range d.Inputs() {
		w := make(Word, in.Width)
		for i := range w {
			w[i] = g.NewInput()
		}
		syn.sigBits[in.ID] = w
		g.InputBits[in.Name] = w
	}
	// Latches.
	regs := d.Registers()
	for _, reg := range regs {
		w := make(Word, reg.Width)
		for i := range w {
			w[i] = g.NewLatch()
		}
		syn.sigBits[reg.ID] = w
		g.LatchBits[reg.Name] = w
	}
	// Combinational signals on demand; next-state functions last.
	order, err := d.CombOrder()
	if err != nil {
		return nil, err
	}
	for _, sig := range order {
		w, err := syn.expr(d.Comb[sig])
		if err != nil {
			return nil, fmt.Errorf("synthesizing %s: %w", sig.Name, err)
		}
		syn.sigBits[sig.ID] = g.Extend(w, sig.Width)
	}
	for _, reg := range regs {
		nw, err := syn.expr(d.Next[reg])
		if err != nil {
			return nil, fmt.Errorf("synthesizing next(%s): %w", reg.Name, err)
		}
		nw = g.Extend(nw, reg.Width)
		bits := syn.sigBits[reg.ID]
		for i := range bits {
			g.SetLatchNext(bits[i], nw[i])
		}
	}
	// Output map.
	for _, out := range d.Outputs() {
		w := syn.sigBits[out.ID]
		if w == nil {
			return nil, fmt.Errorf("output %s has no synthesized bits", out.Name)
		}
		g.OutputBits[out.Name] = w
	}
	return g, nil
}

type synth struct {
	g       *AIG
	d       *rtl.Design
	sigBits []Word // by signal ID, nil until synthesized
}

func (s *synth) expr(e rtl.Expr) (Word, error) {
	g := s.g
	switch x := e.(type) {
	case *rtl.Const:
		return g.ConstWord(x.Val, x.W), nil

	case *rtl.Ref:
		if !s.d.Owns(x.Sig) || s.sigBits[x.Sig.ID] == nil {
			return nil, fmt.Errorf("signal %s not yet synthesized", x.Sig.Name)
		}
		return s.sigBits[x.Sig.ID], nil

	case *rtl.Unary:
		sub, err := s.expr(x.X)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case rtl.OpNot:
			return g.NotWord(sub), nil
		case rtl.OpLogNot:
			return Word{g.RedOr(sub).Not()}, nil
		case rtl.OpNeg:
			return g.Neg(sub), nil
		case rtl.OpRedAnd:
			return Word{g.RedAnd(sub)}, nil
		case rtl.OpRedOr:
			return Word{g.RedOr(sub)}, nil
		case rtl.OpRedXor:
			return Word{g.RedXor(sub)}, nil
		}
		return nil, fmt.Errorf("bad unary op %v", x.Op)

	case *rtl.Binary:
		a, err := s.expr(x.A)
		if err != nil {
			return nil, err
		}
		b, err := s.expr(x.B)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case rtl.OpAnd, rtl.OpOr, rtl.OpXor, rtl.OpXnor:
			out := make(Word, x.W)
			for i := range out {
				switch x.Op {
				case rtl.OpAnd:
					out[i] = g.And(a[i], b[i])
				case rtl.OpOr:
					out[i] = g.Or(a[i], b[i])
				case rtl.OpXor:
					out[i] = g.Xor(a[i], b[i])
				default:
					out[i] = g.Xor(a[i], b[i]).Not()
				}
			}
			return out, nil
		case rtl.OpLogAnd:
			return Word{g.And(g.RedOr(a), g.RedOr(b))}, nil
		case rtl.OpLogOr:
			return Word{g.Or(g.RedOr(a), g.RedOr(b))}, nil
		case rtl.OpAdd:
			return g.Add(a, b, ConstFalse), nil
		case rtl.OpSub:
			return g.Sub(a, b), nil
		case rtl.OpMul:
			return g.Mul(a, b, x.W), nil
		case rtl.OpEq:
			return Word{g.Eq(a, b)}, nil
		case rtl.OpNe:
			return Word{g.Eq(a, b).Not()}, nil
		case rtl.OpLt:
			return Word{g.Lt(a, b)}, nil
		case rtl.OpLe:
			return Word{g.Lt(b, a).Not()}, nil
		case rtl.OpGt:
			return Word{g.Lt(b, a)}, nil
		case rtl.OpGe:
			return Word{g.Lt(a, b).Not()}, nil
		case rtl.OpShl:
			return g.Shift(a, b, true), nil
		case rtl.OpShr:
			return g.Shift(a, b, false), nil
		}
		return nil, fmt.Errorf("bad binary op %v", x.Op)

	case *rtl.Mux:
		c, err := s.expr(x.Cond)
		if err != nil {
			return nil, err
		}
		t, err := s.expr(x.T)
		if err != nil {
			return nil, err
		}
		f, err := s.expr(x.F)
		if err != nil {
			return nil, err
		}
		return g.MuxWord(c[0], g.Extend(t, x.W), g.Extend(f, x.W)), nil

	case *rtl.Select:
		sub, err := s.expr(x.X)
		if err != nil {
			return nil, err
		}
		return Word{sub[x.Bit]}, nil

	case *rtl.Slice:
		sub, err := s.expr(x.X)
		if err != nil {
			return nil, err
		}
		return sub[x.LSB : x.MSB+1], nil

	case *rtl.Concat:
		out := make(Word, 0, x.W)
		for i := len(x.Parts) - 1; i >= 0; i-- {
			pw, err := s.expr(x.Parts[i])
			if err != nil {
				return nil, err
			}
			out = append(out, pw...)
		}
		return out, nil

	default:
		return nil, fmt.Errorf("unknown expression %T", e)
	}
}

// Simulator evaluates an AIG cycle by cycle. Latches reset to zero.
type Simulator struct {
	g     *AIG
	value []bool // per node
	state []bool // latch values, parallel to g.latches
}

// NewSimulator creates a netlist simulator in the reset state.
func NewSimulator(g *AIG) *Simulator {
	return &Simulator{
		g:     g,
		value: make([]bool, len(g.nodes)),
		state: make([]bool, len(g.latches)),
	}
}

// Reset zeroes the latches.
func (s *Simulator) Reset() {
	for i := range s.state {
		s.state[i] = false
	}
}

func (s *Simulator) edge(l Lit) bool {
	v := s.value[l.Node()]
	if l.Complement() {
		return !v
	}
	return v
}

// Step applies one input assignment (by signal name), evaluates the
// combinational logic, and advances the latches. It returns the settled
// output values for the cycle.
func (s *Simulator) Step(inputs map[string]uint64) map[string]uint64 {
	g := s.g
	// Load inputs.
	for name, bits := range g.InputBits {
		v := inputs[name]
		for i, l := range bits {
			s.value[l.Node()] = (v>>uint(i))&1 == 1
		}
	}
	// Load latch state.
	for i, idx := range g.latches {
		s.value[idx] = s.state[i]
	}
	// Evaluate AND nodes in index order (fanins precede the node).
	for i, nd := range g.nodes {
		if nd.kind == nAnd {
			s.value[i] = s.edge(nd.a) && s.edge(nd.b)
		}
	}
	// Capture outputs.
	out := make(map[string]uint64, len(g.OutputBits))
	for name, bits := range g.OutputBits {
		var v uint64
		for i, l := range bits {
			if s.edge(l) {
				v |= 1 << uint(i)
			}
		}
		out[name] = v
	}
	// Latch next state.
	next := make([]bool, len(s.state))
	for i, idx := range g.latches {
		next[i] = s.edge(g.nodes[idx].a)
	}
	s.state = next
	return out
}

// Peek reads any named signal available in the netlist (inputs, latches,
// outputs) from the last evaluated cycle.
func (s *Simulator) Peek(name string) (uint64, bool) {
	for _, m := range []map[string][]Lit{s.g.OutputBits, s.g.LatchBits, s.g.InputBits} {
		if bits, ok := m[name]; ok {
			var v uint64
			for i, l := range bits {
				if s.edge(l) {
					v |= 1 << uint(i)
				}
			}
			return v, true
		}
	}
	return 0, false
}

// SignalNames lists the named vectors in the netlist, sorted.
func (g *AIG) SignalNames() []string {
	seen := map[string]bool{}
	var names []string
	for _, m := range []map[string][]Lit{g.InputBits, g.LatchBits, g.OutputBits} {
		for n := range m {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	return names
}
