// Package cnf encodes elaborated RTL designs into CNF for the SAT solver via
// the Tseitin transformation. The central type is the Unroller, which
// materializes a design over consecutive time frames on demand: frame t's
// register bits are the encoded next-state functions of frame t-1, inputs
// get fresh solver variables every frame, and every signal is encoded at
// its first reference and cached per frame. The package keeps only the
// Tseitin gates (and the gate table ConeVars reads); rtl.Lower builds each
// operator from them, the same lowering the batch simulator builds its
// word instructions with. Both bounded model checking and k-induction in
// the mc package are built on the Unroller.
package cnf

import (
	"fmt"

	"goldmine/internal/rtl"
	"goldmine/internal/sat"
	"goldmine/internal/sim"
)

// Vec is a little-endian vector of literals representing a word: Vec[0] is
// bit 0 (LSB).
type Vec []sat.Lit

// Unroller encodes a design over time frames 0..T-1.
type Unroller struct {
	S *sat.Solver
	D *rtl.Design

	constTrue sat.Lit

	// frames[t] holds the encodings of frame t.
	frames []*frame

	// initZero records that InitZero was requested, so frame-0 registers
	// materialized later are constrained to the reset state on creation.
	initZero bool

	// gates[v] holds the input variables of the Tseitin gate whose output is
	// variable v ({0, 0} for a leaf: an input, a frame-0 register, the
	// constant, or a variable allocated outside the unroller). A mux's second
	// slot is -(k+1), naming its data inputs muxData[k]; the table stays at
	// two int32 per variable because muxes are the minority of gates.
	gates   [][2]int32
	muxData [][2]int32
	// coneBuf and coneMark are ConeVars' reused output and visited bitset.
	coneBuf  []int
	coneMark []uint64
}

// frame holds the encodings of one time frame: vecs[sig.ID] is the literal
// vector of an input, register or combinational signal, nil while it is
// not materialised.
type frame struct {
	vecs []Vec
}

// NewUnroller creates an unroller with zero frames. It materializes signals
// on demand: AddFrame only reserves a frame, and inputs and registers get
// solver variables the first time they are referenced (directly or through
// a register's next-state function in an earlier frame). Encoding a
// property therefore emits CNF for exactly the transitive sequential cone
// of influence of the signals the property mentions.
//
// The unreferenced logic is definitional (Tseitin clauses constrain only
// their own fresh outputs), so omitting it cannot change the
// satisfiability of the encoded cone; it leaves the unreferenced inputs
// unconstrained. InputModel reports only inputs that were materialized;
// callers that need a total stimulus (the mc package) fill the rest with
// zeros.
func NewUnroller(s *sat.Solver, d *rtl.Design) *Unroller {
	u := &Unroller{S: s, D: d}
	tv := s.NewVar()
	u.constTrue = sat.Lit(tv)
	s.AddClause(u.constTrue)
	return u
}

// True returns the constant-true literal.
func (u *Unroller) True() sat.Lit { return u.constTrue }

// False returns the constant-false literal.
func (u *Unroller) False() sat.Lit { return u.constTrue.Neg() }

// Frames returns the number of materialized frames.
func (u *Unroller) Frames() int { return len(u.frames) }

// AddFrame reserves the next time frame and returns its index. Its signals
// are materialized at first reference: frame-0 registers as fresh
// unconstrained variables (constrain with InitZero for reset-state
// reasoning), frame t>0 registers as the encoded next-state functions of
// frame t-1.
func (u *Unroller) AddFrame() int {
	u.frames = append(u.frames, &frame{vecs: make([]Vec, len(u.D.Signals))})
	return len(u.frames) - 1
}

// regVec materializes register sig at frame t and stores it in f: fresh
// variables at frame 0 (reset-constrained when InitZero is in effect), the
// encoded next-state function of frame t-1 otherwise.
func (u *Unroller) regVec(f *frame, t int, sig *rtl.Signal) Vec {
	if t == 0 {
		v := u.freshVec(sig.Width)
		f.vecs[sig.ID] = v
		if u.initZero {
			for _, l := range v {
				u.S.AddClause(l.Neg())
			}
		}
		return v
	}
	v := u.encodeExpr(u.D.Next[sig], t-1)
	f.vecs[sig.ID] = v
	return v
}

// InitZero constrains every register bit of frame 0 to zero (the reset state
// shared with the simulator), including the frame-0 registers materialized
// after this call.
func (u *Unroller) InitZero() {
	u.initZero = true
	if len(u.frames) == 0 {
		u.AddFrame()
	}
	for _, reg := range u.D.Registers() {
		for _, l := range u.frames[0].vecs[reg.ID] {
			u.S.AddClause(l.Neg())
		}
	}
}

func (u *Unroller) freshVec(w int) Vec {
	v := make(Vec, w)
	for i := range v {
		v[i] = sat.Lit(u.S.NewVar())
	}
	return v
}

// SignalVec returns the literal vector of sig at frame t, encoding its
// combinational cone on demand. A signal of another design is an error.
func (u *Unroller) SignalVec(t int, sig *rtl.Signal) (Vec, error) {
	if t < 0 || t >= len(u.frames) {
		return nil, fmt.Errorf("frame %d not materialized (have %d)", t, len(u.frames))
	}
	if !u.D.Owns(sig) {
		return nil, fmt.Errorf("signal %s is not a signal of design %s", sig.Name, u.D.Name)
	}
	f := u.frames[t]
	if v := f.vecs[sig.ID]; v != nil {
		return v, nil
	}
	// First reference: materialize exactly this signal (and, for a register
	// at t > 0, its next-state cone in frame t-1).
	if sig.Kind == rtl.SigInput && sig.Name != u.D.Clock {
		v := u.freshVec(sig.Width)
		f.vecs[sig.ID] = v
		return v, nil
	}
	if sig.IsState {
		return u.regVec(f, t, sig), nil
	}
	e, ok := u.D.Comb[sig]
	if !ok {
		return nil, fmt.Errorf("signal %s has no encoding at frame %d", sig.Name, t)
	}
	v := u.encodeExpr(e, t)
	f.vecs[sig.ID] = v
	return v, nil
}

// EncodeExpr encodes an arbitrary expression evaluated at frame t.
func (u *Unroller) EncodeExpr(e rtl.Expr, t int) (Vec, error) {
	if t < 0 || t >= len(u.frames) {
		return nil, fmt.Errorf("frame %d not materialized (have %d)", t, len(u.frames))
	}
	return u.encodeExpr(e, t), nil
}

// InputVecAt returns the literal vector of input sig at frame t if it has
// been materialized, without forcing materialization. A missing vector means the input is outside every encoded cone at that frame
// and is therefore unconstrained.
func (u *Unroller) InputVecAt(t int, sig *rtl.Signal) (Vec, bool) {
	if t < 0 || t >= len(u.frames) || !u.D.Owns(sig) || sig.Kind != rtl.SigInput {
		return nil, false
	}
	v := u.frames[t].vecs[sig.ID]
	return v, v != nil
}

// InputModel extracts the input assignment of frame t from a satisfying
// model.
func (u *Unroller) InputModel(t int) sim.InputVec {
	f := u.frames[t]
	iv := sim.InputVec{}
	for id, vec := range f.vecs {
		sig := u.D.Signals[id]
		if vec == nil || sig.Kind != rtl.SigInput {
			continue
		}
		var val uint64
		for i, l := range vec {
			if u.S.ValueLit(l) {
				val |= 1 << uint(i)
			}
		}
		iv[sig.Name] = val
	}
	return iv
}

// SignalModel extracts the value of sig at frame t from a satisfying model.
func (u *Unroller) SignalModel(t int, sig *rtl.Signal) (uint64, error) {
	vec, err := u.SignalVec(t, sig)
	if err != nil {
		return 0, err
	}
	var val uint64
	for i, l := range vec {
		if u.S.ValueLit(l) {
			val |= 1 << uint(i)
		}
	}
	return val, nil
}

// ConeVars returns the variables of the transitive Tseitin cone of lits: the
// literals' own variables plus, for every gate output reached, the gate's
// inputs, down to the leaves. This is the decision scope of a query whose
// assumptions are lits (sat.Solver.SolveScoped): every clause the unroller
// emits either lies inside the cone, defines a gate outside it, or is
// satisfied at decision level 0 (the reset units of InitZero and the
// constant), so a cone assignment without conflict extends to a model.
//
// The returned slice is a buffer reused by the next ConeVars call.
func (u *Unroller) ConeVars(lits []sat.Lit) []int {
	if n := u.S.NumVars()/64 + 1; len(u.coneMark) < n {
		u.coneMark = append(u.coneMark, make([]uint64, n-len(u.coneMark))...)
	}
	mark := u.coneMark
	out := u.coneBuf[:0]
	visit := func(v int) {
		if mark[v>>6]&(1<<(v&63)) == 0 {
			mark[v>>6] |= 1 << (v & 63)
			out = append(out, v)
		}
	}
	for _, l := range lits {
		visit(l.Var())
	}
	for i := 0; i < len(out); i++ {
		v := out[i]
		if v >= len(u.gates) || u.gates[v][0] == 0 {
			continue
		}
		g := u.gates[v]
		visit(int(g[0]))
		if g[1] > 0 {
			visit(int(g[1]))
		} else {
			d := u.muxData[-g[1]-1]
			visit(int(d[0]))
			visit(int(d[1]))
		}
	}
	for _, v := range out {
		mark[v>>6] = 0
	}
	u.coneBuf = out
	return out
}

// ---------------------------------------------------------------------------
// Expression encoding
// ---------------------------------------------------------------------------

// encodeExpr encodes e at frame t through rtl.Lower with the Tseitin gates.
// A malformed expression (a nil or unknown node, a signal of another design)
// is a fault of the design, not of a query, and panics.
func (u *Unroller) encodeExpr(e rtl.Expr, t int) Vec {
	v, err := rtl.Lower[sat.Lit](frameGates{u, t}, e)
	if err != nil {
		panic("cnf: " + err.Error())
	}
	return v
}

// frameGates is the gate algebra rtl.Lower encodes frame t with: the
// Tseitin gates below, Not as literal negation, and signals read through
// SignalVec.
type frameGates struct {
	u *Unroller
	t int
}

func (g frameGates) False() sat.Lit              { return g.u.False() }
func (g frameGates) True() sat.Lit               { return g.u.True() }
func (g frameGates) Not(x sat.Lit) sat.Lit       { return x.Neg() }
func (g frameGates) And(x, y sat.Lit) sat.Lit    { return g.u.andGate(x, y) }
func (g frameGates) Or(x, y sat.Lit) sat.Lit     { return g.u.orGate(x, y) }
func (g frameGates) Xor(x, y sat.Lit) sat.Lit    { return g.u.xorGate(x, y) }
func (g frameGates) Mux(c, t, f sat.Lit) sat.Lit { return g.u.muxGate(c, t, f) }

func (g frameGates) Ref(sig *rtl.Signal) ([]sat.Lit, error) { return g.u.SignalVec(g.t, sig) }

// ---------------------------------------------------------------------------
// Gate primitives (Tseitin)
// ---------------------------------------------------------------------------

func (u *Unroller) fresh() sat.Lit { return sat.Lit(u.S.NewVar()) }

// gate allocates a gate output and records its inputs in the gate table:
// a's variable and b, which is the second input's variable, or -(k+1) for a
// mux whose data inputs are muxData[k] (see Unroller.gates).
func (u *Unroller) gate(a sat.Lit, b int32) sat.Lit {
	o := u.fresh()
	for len(u.gates) <= int(o) {
		u.gates = append(u.gates, [2]int32{})
	}
	u.gates[o] = [2]int32{int32(a.Var()), b}
	return o
}

func (u *Unroller) andGate(a, b sat.Lit) sat.Lit {
	if a == u.False() || b == u.False() {
		return u.False()
	}
	if a == u.True() {
		return b
	}
	if b == u.True() {
		return a
	}
	if a == b {
		return a
	}
	if a == b.Neg() {
		return u.False()
	}
	o := u.gate(a, int32(b.Var()))
	u.S.AddClause(a.Neg(), b.Neg(), o)
	u.S.AddClause(a, o.Neg())
	u.S.AddClause(b, o.Neg())
	return o
}

func (u *Unroller) orGate(a, b sat.Lit) sat.Lit {
	return u.andGate(a.Neg(), b.Neg()).Neg()
}

func (u *Unroller) xorGate(a, b sat.Lit) sat.Lit {
	if a == u.False() {
		return b
	}
	if b == u.False() {
		return a
	}
	if a == u.True() {
		return b.Neg()
	}
	if b == u.True() {
		return a.Neg()
	}
	if a == b {
		return u.False()
	}
	if a == b.Neg() {
		return u.True()
	}
	o := u.gate(a, int32(b.Var()))
	u.S.AddClause(a.Neg(), b.Neg(), o.Neg())
	u.S.AddClause(a, b, o.Neg())
	u.S.AddClause(a.Neg(), b, o)
	u.S.AddClause(a, b.Neg(), o)
	return o
}

func (u *Unroller) muxGate(c, t, f sat.Lit) sat.Lit {
	if c == u.True() {
		return t
	}
	if c == u.False() {
		return f
	}
	if t == f {
		return t
	}
	u.muxData = append(u.muxData, [2]int32{int32(t.Var()), int32(f.Var())})
	o := u.gate(c, -int32(len(u.muxData)))
	u.S.AddClause(c.Neg(), t.Neg(), o)
	u.S.AddClause(c.Neg(), t, o.Neg())
	u.S.AddClause(c, f.Neg(), o)
	u.S.AddClause(c, f, o.Neg())
	return o
}
