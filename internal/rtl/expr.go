// Package rtl defines the elaborated register-transfer-level intermediate
// representation used throughout the GoldMine reproduction. A verilog.Module
// is elaborated into a Design: a set of width-annotated signals, one
// combinational expression per wire, and one next-state expression per
// register. Procedural always blocks are lowered by symbolic execution into
// pure expressions, so every downstream consumer (simulator, synthesizer,
// coverage engine, model checker) works on the same simple dataflow form.
//
// Width semantics follow a simplified, deterministic subset of Verilog-2001:
// all values are unsigned; binary bitwise and arithmetic operators extend both
// operands to the larger width; comparisons, logical operators and reductions
// yield one bit; every result is truncated to its annotated width. Values are
// limited to 64 bits per signal.
package rtl

import (
	"fmt"
	"strings"
)

// UnOp enumerates unary operators.
type UnOp int

// Unary operators.
const (
	OpNot    UnOp = iota // bitwise ~
	OpLogNot             // logical !
	OpNeg                // arithmetic -
	OpRedAnd             // &x
	OpRedOr              // |x
	OpRedXor             // ^x
)

var unOpNames = [...]string{"~", "!", "-", "&", "|", "^"}

func (op UnOp) String() string { return unOpNames[op] }

// BinOp enumerates binary operators.
type BinOp int

// Binary operators.
const (
	OpAnd BinOp = iota
	OpOr
	OpXor
	OpXnor
	OpLogAnd
	OpLogOr
	OpAdd
	OpSub
	OpMul
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpShl
	OpShr
)

var binOpNames = [...]string{
	"&", "|", "^", "~^", "&&", "||", "+", "-", "*",
	"==", "!=", "<", "<=", ">", ">=", "<<", ">>",
}

func (op BinOp) String() string { return binOpNames[op] }

// IsBoolOp reports whether the operator always yields a single bit.
func (op BinOp) IsBoolOp() bool {
	switch op {
	case OpLogAnd, OpLogOr, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}

// Expr is an elaborated expression node. Expressions form a DAG over signals.
type Expr interface {
	// Width is the bit width of the expression's value.
	Width() int
	exprNode()
}

// Const is a literal value truncated to W bits.
type Const struct {
	Val uint64
	W   int
}

// Ref reads the current value of a whole signal.
type Ref struct {
	Sig *Signal
}

// Unary applies a unary operator; W annotates the result width.
type Unary struct {
	Op UnOp
	X  Expr
	W  int
}

// Binary applies a binary operator; W annotates the result width.
type Binary struct {
	Op   BinOp
	A, B Expr
	W    int
}

// Mux selects T when Cond's low bit is 1, else F.
type Mux struct {
	Cond, T, F Expr
	W          int
}

// Select extracts a single constant bit.
type Select struct {
	X   Expr
	Bit int
}

// Slice extracts constant bit range [MSB:LSB] (MSB >= LSB).
type Slice struct {
	X        Expr
	MSB, LSB int
}

// Concat joins parts with Parts[0] most significant (Verilog order).
type Concat struct {
	Parts []Expr
	W     int
}

func (e *Const) exprNode()  {}
func (e *Ref) exprNode()    {}
func (e *Unary) exprNode()  {}
func (e *Binary) exprNode() {}
func (e *Mux) exprNode()    {}
func (e *Select) exprNode() {}
func (e *Slice) exprNode()  {}
func (e *Concat) exprNode() {}

// Width implementations.
func (e *Const) Width() int  { return e.W }
func (e *Ref) Width() int    { return e.Sig.Width }
func (e *Unary) Width() int  { return e.W }
func (e *Binary) Width() int { return e.W }
func (e *Mux) Width() int    { return e.W }
func (e *Select) Width() int { return 1 }
func (e *Slice) Width() int  { return e.MSB - e.LSB + 1 }
func (e *Concat) Width() int { return e.W }

// Mask returns the bit mask for a width (width must be in 1..64).
func Mask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

// NewConst builds a width-masked constant.
func NewConst(v uint64, w int) *Const { return &Const{Val: v & Mask(w), W: w} }

// ConstBool builds a 1-bit constant from a bool.
func ConstBool(b bool) *Const {
	if b {
		return &Const{Val: 1, W: 1}
	}
	return &Const{Val: 0, W: 1}
}

// String renders the expression in Verilog-like syntax.
func String(e Expr) string {
	switch x := e.(type) {
	case *Const:
		return fmt.Sprintf("%d'd%d", x.W, x.Val)
	case *Ref:
		return x.Sig.Name
	case *Unary:
		return x.Op.String() + wrap(x.X)
	case *Binary:
		return wrap(x.A) + " " + x.Op.String() + " " + wrap(x.B)
	case *Mux:
		return wrap(x.Cond) + " ? " + wrap(x.T) + " : " + wrap(x.F)
	case *Select:
		return wrap(x.X) + fmt.Sprintf("[%d]", x.Bit)
	case *Slice:
		return wrap(x.X) + fmt.Sprintf("[%d:%d]", x.MSB, x.LSB)
	case *Concat:
		parts := make([]string, len(x.Parts))
		for i, p := range x.Parts {
			parts[i] = String(p)
		}
		return "{" + strings.Join(parts, ", ") + "}"
	default:
		return fmt.Sprintf("<%T>", e)
	}
}

func wrap(e Expr) string {
	switch e.(type) {
	case *Const, *Ref, *Select, *Slice, *Concat:
		return String(e)
	default:
		return "(" + String(e) + ")"
	}
}

// Support appends every distinct signal read by e to set (keyed by name) and
// returns the set. Pass nil to allocate.
func Support(e Expr, set map[*Signal]bool) map[*Signal]bool {
	if set == nil {
		set = map[*Signal]bool{}
	}
	walk(e, func(n Expr) {
		if r, ok := n.(*Ref); ok {
			set[r.Sig] = true
		}
	})
	return set
}

// walk visits every node in the expression tree, parents before children.
func walk(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Unary:
		walk(x.X, fn)
	case *Binary:
		walk(x.A, fn)
		walk(x.B, fn)
	case *Mux:
		walk(x.Cond, fn)
		walk(x.T, fn)
		walk(x.F, fn)
	case *Select:
		walk(x.X, fn)
	case *Slice:
		walk(x.X, fn)
	case *Concat:
		for _, p := range x.Parts {
			walk(p, fn)
		}
	}
}
