package rtl

import (
	"fmt"
	"math/bits"
)

// Env supplies current signal values during expression evaluation.
type Env interface {
	Get(sig *Signal) uint64
}

// MapEnv is a simple map-backed environment.
type MapEnv map[*Signal]uint64

// Get returns the value of sig (zero when absent).
func (m MapEnv) Get(sig *Signal) uint64 { return m[sig] }

// Eval computes the value of e under env. Results are masked to the
// expression width. Shift amounts >= 64 yield zero.
func Eval(e Expr, env Env) uint64 {
	switch x := e.(type) {
	case *Const:
		return x.Val

	case *Ref:
		return env.Get(x.Sig) & Mask(x.Sig.Width)

	case *Unary:
		v := Eval(x.X, env)
		switch x.Op {
		case OpNot:
			return ^v & Mask(x.W)
		case OpLogNot:
			if v == 0 {
				return 1
			}
			return 0
		case OpNeg:
			return (-v) & Mask(x.W)
		case OpRedAnd:
			if v == Mask(x.X.Width()) {
				return 1
			}
			return 0
		case OpRedOr:
			if v != 0 {
				return 1
			}
			return 0
		case OpRedXor:
			return uint64(bits.OnesCount64(v) & 1)
		}
		panic(fmt.Sprintf("rtl.Eval: bad unary op %d", x.Op))

	case *Binary:
		a := Eval(x.A, env)
		b := Eval(x.B, env)
		switch x.Op {
		case OpAnd:
			return (a & b) & Mask(x.W)
		case OpOr:
			return (a | b) & Mask(x.W)
		case OpXor:
			return (a ^ b) & Mask(x.W)
		case OpXnor:
			return (^(a ^ b)) & Mask(x.W)
		case OpLogAnd:
			return b2u(a != 0 && b != 0)
		case OpLogOr:
			return b2u(a != 0 || b != 0)
		case OpAdd:
			return (a + b) & Mask(x.W)
		case OpSub:
			return (a - b) & Mask(x.W)
		case OpMul:
			return (a * b) & Mask(x.W)
		case OpEq:
			return b2u(a == b)
		case OpNe:
			return b2u(a != b)
		case OpLt:
			return b2u(a < b)
		case OpLe:
			return b2u(a <= b)
		case OpGt:
			return b2u(a > b)
		case OpGe:
			return b2u(a >= b)
		case OpShl:
			if b >= 64 {
				return 0
			}
			return (a << b) & Mask(x.W)
		case OpShr:
			if b >= 64 {
				return 0
			}
			return (a >> b) & Mask(x.W)
		}
		panic(fmt.Sprintf("rtl.Eval: bad binary op %d", x.Op))

	case *Mux:
		if Eval(x.Cond, env)&1 == 1 {
			return Eval(x.T, env) & Mask(x.W)
		}
		return Eval(x.F, env) & Mask(x.W)

	case *Select:
		return (Eval(x.X, env) >> uint(x.Bit)) & 1

	case *Slice:
		return (Eval(x.X, env) >> uint(x.LSB)) & Mask(x.MSB-x.LSB+1)

	case *Concat:
		var v uint64
		for _, p := range x.Parts {
			v = (v << uint(p.Width())) | Eval(p, env)
		}
		return v & Mask(x.W)

	default:
		panic(fmt.Sprintf("rtl.Eval: unknown expression %T", e))
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
