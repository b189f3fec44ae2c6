package rtl

import (
	"fmt"
	"math/bits"
	"sort"

	"goldmine/internal/verilog"
)

// Elaborate lowers a parsed Verilog module into a Design. Procedural always
// blocks are symbolically executed into per-signal expressions; continuous
// assignments (including partial bit/part-select drives) are merged; coverage
// instrumentation points are recorded along the way.
func Elaborate(m *verilog.Module) (*Design, error) {
	el := &elaborator{
		m: m,
		d: &Design{
			Name:  m.Name,
			Comb:  map[*Signal]Expr{},
			Next:  map[*Signal]Expr{},
			Cover: &CoverageInfo{},
		},
		drivers: map[*Signal]string{},
	}
	if err := el.run(); err != nil {
		return nil, err
	}
	if err := el.d.Validate(); err != nil {
		return nil, err
	}
	return el.d, nil
}

// ElaborateSource parses and elaborates a single-module source string. If
// the source contains several modules, the first is the implicit top and any
// instances are flattened.
func ElaborateSource(src string) (*Design, error) {
	mods, err := verilog.ParseFile(src)
	if err != nil {
		return nil, err
	}
	return ElaborateHierarchy(mods, mods[0].Name)
}

// ElaborateHierarchySource parses a multi-module source and elaborates the
// named top module with its instance hierarchy flattened.
func ElaborateHierarchySource(src, top string) (*Design, error) {
	mods, err := verilog.ParseFile(src)
	if err != nil {
		return nil, err
	}
	return ElaborateHierarchy(mods, top)
}

// ElaborateHierarchy flattens the hierarchy rooted at top and elaborates it.
func ElaborateHierarchy(mods []*verilog.Module, top string) (*Design, error) {
	flat, err := verilog.Flatten(mods, top)
	if err != nil {
		return nil, err
	}
	return Elaborate(flat)
}

type elaborator struct {
	m       *verilog.Module
	d       *Design
	drivers map[*Signal]string // signal -> description of its driver
}

func (el *elaborator) run() error {
	if err := el.detectClock(); err != nil {
		return err
	}
	if err := el.declareSignals(); err != nil {
		return err
	}
	if err := el.lowerAssigns(); err != nil {
		return err
	}
	for i := range el.m.Always {
		if err := el.lowerAlways(&el.m.Always[i]); err != nil {
			return err
		}
	}
	if err := el.checkDriven(); err != nil {
		return err
	}
	el.collectToggleSignals()
	el.detectFSMs()
	return nil
}

// detectClock finds the unique clock from edge-triggered sensitivity lists.
func (el *elaborator) detectClock() error {
	for i := range el.m.Always {
		blk := &el.m.Always[i]
		if !blk.Sequential() {
			continue
		}
		clk, _ := blk.Clock()
		for _, s := range blk.Sens {
			if s.Edge != verilog.EdgeNone && s.Signal != clk {
				return fmt.Errorf("line %d: multiple edge signals in sensitivity list (%s, %s); single-clock subset",
					blk.Line, clk, s.Signal)
			}
		}
		if el.d.Clock != "" && el.d.Clock != clk {
			return fmt.Errorf("line %d: second clock %q (already using %q); single-clock subset", blk.Line, clk, el.d.Clock)
		}
		el.d.Clock = clk
	}
	return nil
}

// declareSignals creates Signal records. Whether a reg is true sequential
// state is decided by scanning which always block assigns it.
func (el *elaborator) declareSignals() error {
	seqAssigned := map[string]bool{}
	combAssigned := map[string]bool{}
	for i := range el.m.Always {
		blk := &el.m.Always[i]
		set := map[string]bool{}
		collectAssigned(blk.Body, set)
		for name := range set {
			if blk.Sequential() {
				seqAssigned[name] = true
			} else {
				combAssigned[name] = true
			}
		}
	}
	for _, dec := range el.m.Decls {
		if dec.Range.Width() > 64 {
			return fmt.Errorf("line %d: signal %s wider than 64 bits (%d)", dec.Line, dec.Name, dec.Range.Width())
		}
		kind := SigWire
		switch dec.Dir {
		case verilog.DirInput:
			kind = SigInput
		case verilog.DirOutput:
			kind = SigOutput
		case verilog.DirInout:
			return fmt.Errorf("line %d: inout ports are not supported", dec.Line)
		default:
			if dec.Kind == verilog.KindReg {
				kind = SigReg
			}
		}
		if seqAssigned[dec.Name] && combAssigned[dec.Name] {
			return fmt.Errorf("signal %s assigned in both sequential and combinational blocks", dec.Name)
		}
		sig := &Signal{
			Name:    dec.Name,
			Width:   dec.Range.Width(),
			Kind:    kind,
			IsState: seqAssigned[dec.Name],
			Line:    dec.Line,
		}
		// A reg only driven combinationally is just a wire.
		if sig.Kind == SigReg && !sig.IsState {
			sig.Kind = SigWire
		}
		if sig.Kind == SigInput && sig.IsState {
			return fmt.Errorf("input %s assigned inside the design", dec.Name)
		}
		if err := el.d.addSignal(sig); err != nil {
			return err
		}
	}
	// Ports listed in the header must be declared.
	for _, p := range el.m.Ports {
		if el.d.Signal(p) == nil {
			return fmt.Errorf("port %s has no declaration", p)
		}
	}
	return nil
}

func collectAssigned(s verilog.Stmt, set map[string]bool) {
	switch st := s.(type) {
	case *verilog.BlockStmt:
		for _, sub := range st.Stmts {
			collectAssigned(sub, set)
		}
	case *verilog.AssignStmt:
		set[st.LHS.Name] = true
	case *verilog.IfStmt:
		collectAssigned(st.Then, set)
		if st.Else != nil {
			collectAssigned(st.Else, set)
		}
	case *verilog.CaseStmt:
		for _, item := range st.Items {
			collectAssigned(item.Body, set)
		}
	}
}

// ---------------------------------------------------------------------------
// Continuous assignments
// ---------------------------------------------------------------------------

// partialDrive is one continuous assignment to a (possibly partial) LHS.
type partialDrive struct {
	msb, lsb int
	rhs      Expr
	line     int
}

func (el *elaborator) lowerAssigns() error {
	partial := map[*Signal][]partialDrive{}
	for _, a := range el.m.Assigns {
		sig := el.d.Signal(a.LHS.Name)
		if sig == nil {
			return fmt.Errorf("line %d: assignment to undeclared signal %s", a.Line, a.LHS.Name)
		}
		if sig.Kind == SigInput {
			return fmt.Errorf("line %d: continuous assignment drives input %s", a.Line, sig.Name)
		}
		if sig.IsState {
			return fmt.Errorf("line %d: continuous assignment drives register %s", a.Line, sig.Name)
		}
		msb, lsb := sig.Width-1, 0
		switch {
		case a.LHS.Index != nil:
			idx, ok := constOf(a.LHS.Index)
			if !ok {
				return fmt.Errorf("line %d: dynamic bit-select on assign LHS is not supported", a.Line)
			}
			msb, lsb = int(idx), int(idx)
		case a.LHS.HasRange:
			msb, lsb = a.LHS.MSB, a.LHS.LSB
		}
		if msb >= sig.Width || lsb < 0 || msb < lsb {
			return fmt.Errorf("line %d: assign range [%d:%d] out of bounds for %s[%d]", a.Line, msb, lsb, sig.Name, sig.Width)
		}
		rhs, err := el.elabExpr(a.RHS)
		if err != nil {
			return err
		}
		rhs = extend(rhs, msb-lsb+1)
		partial[sig] = append(partial[sig], partialDrive{msb: msb, lsb: lsb, rhs: rhs, line: a.Line})

		desc := fmt.Sprintf("assign %s", a.LHS)
		el.d.Cover.add(PointLine, a.Line, desc, ConstBool(true))
		el.recordExprPoints(rhs, a.Line)
		// Boolean continuous assignments contribute condition points for
		// their atomic operands (commercial condition-coverage semantics).
		if rhs.Width() == 1 {
			el.recordConditionPoints(rhs, a.Line, desc)
		}
	}
	for sig, drives := range partial {
		e, err := mergeDrives(sig, drives)
		if err != nil {
			return err
		}
		if prev, dup := el.drivers[sig]; dup {
			return fmt.Errorf("signal %s has multiple drivers (%s and continuous assign)", sig.Name, prev)
		}
		el.drivers[sig] = "continuous assign"
		el.d.Comb[sig] = e
	}
	return nil
}

// mergeDrives composes partial continuous assignments into one expression
// covering the whole signal, rejecting overlaps and gaps.
func mergeDrives(sig *Signal, drives []partialDrive) (Expr, error) {
	sort.Slice(drives, func(i, j int) bool { return drives[i].lsb < drives[j].lsb })
	expect := 0
	var parts []Expr // LSB-first here, reversed into Concat order below
	for _, dr := range drives {
		if dr.lsb < expect {
			return nil, fmt.Errorf("line %d: overlapping continuous assignments to %s", dr.line, sig.Name)
		}
		if dr.lsb > expect {
			return nil, fmt.Errorf("bits [%d:%d] of %s are undriven", dr.lsb-1, expect, sig.Name)
		}
		parts = append(parts, dr.rhs)
		expect = dr.msb + 1
	}
	if expect != sig.Width {
		return nil, fmt.Errorf("bits [%d:%d] of %s are undriven", sig.Width-1, expect, sig.Name)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	// Concat wants MSB first.
	rev := make([]Expr, len(parts))
	for i, p := range parts {
		rev[len(parts)-1-i] = p
	}
	return newConcat(rev), nil
}

// ---------------------------------------------------------------------------
// Always blocks: symbolic execution
// ---------------------------------------------------------------------------

// symState carries the symbolic values during procedural execution. cur holds
// read-through values (updated by blocking assignments); fin holds the final
// values that become next-state (sequential) or combinational drives.
type symState struct {
	cur map[*Signal]Expr
	fin map[*Signal]Expr
}

func newSymState() *symState {
	return &symState{cur: map[*Signal]Expr{}, fin: map[*Signal]Expr{}}
}

func (s *symState) clone() *symState {
	c := newSymState()
	for k, v := range s.cur {
		c.cur[k] = v
	}
	for k, v := range s.fin {
		c.fin[k] = v
	}
	return c
}

// latch is a marker expression standing for "value not assigned on this
// path" in a combinational block; if it survives into a final expression the
// block infers a latch, which the subset rejects.
type latch struct {
	Sig *Signal
}

func (e *latch) exprNode()  {}
func (e *latch) Width() int { return e.Sig.Width }

func containsLatch(e Expr) *latch {
	var found *latch
	walk(e, func(n Expr) {
		if l, ok := n.(*latch); ok && found == nil {
			found = l
		}
	})
	return found
}

type blockCtx struct {
	el         *elaborator
	sequential bool
	assigned   map[string]bool // signals assigned anywhere in the block
}

func (el *elaborator) lowerAlways(blk *verilog.AlwaysBlock) error {
	assigned := map[string]bool{}
	collectAssigned(blk.Body, assigned)
	ctx := &blockCtx{el: el, sequential: blk.Sequential(), assigned: assigned}

	st := newSymState()
	if err := ctx.exec(blk.Body, st, ConstBool(true)); err != nil {
		return err
	}

	for name := range assigned {
		sig := el.d.Signal(name)
		if sig == nil {
			return fmt.Errorf("line %d: assignment to undeclared signal %s", blk.Line, name)
		}
		v, ok := st.fin[sig]
		if !ok {
			continue
		}
		if l := containsLatch(v); l != nil {
			return fmt.Errorf("line %d: signal %s is not assigned on all paths of a combinational block (latch inferred)",
				blk.Line, l.Sig.Name)
		}
		if prev, dup := el.drivers[sig]; dup {
			return fmt.Errorf("signal %s has multiple drivers (%s and always block at line %d)", sig.Name, prev, blk.Line)
		}
		el.drivers[sig] = fmt.Sprintf("always block at line %d", blk.Line)
		if ctx.sequential {
			el.d.Next[sig] = extend(v, sig.Width)
		} else {
			el.d.Comb[sig] = extend(v, sig.Width)
		}
	}
	return nil
}

// subst rewrites an elaborated expression so that reads of signals assigned
// earlier in the block (by blocking assignments) see their in-block values,
// implementing Verilog blocking-assignment read-through semantics.
func (ctx *blockCtx) subst(e Expr, st *symState) Expr {
	switch x := e.(type) {
	case *Ref:
		return ctx.read(x.Sig, st)
	case *Const, nil:
		return e
	case *Unary:
		return &Unary{Op: x.Op, X: ctx.subst(x.X, st), W: x.W}
	case *Binary:
		return &Binary{Op: x.Op, A: ctx.subst(x.A, st), B: ctx.subst(x.B, st), W: x.W}
	case *Mux:
		return &Mux{Cond: ctx.subst(x.Cond, st), T: ctx.subst(x.T, st), F: ctx.subst(x.F, st), W: x.W}
	case *Select:
		return &Select{X: ctx.subst(x.X, st), Bit: x.Bit}
	case *Slice:
		return &Slice{X: ctx.subst(x.X, st), MSB: x.MSB, LSB: x.LSB}
	case *Concat:
		parts := make([]Expr, len(x.Parts))
		for i, p := range x.Parts {
			parts[i] = ctx.subst(p, st)
		}
		return &Concat{Parts: parts, W: x.W}
	default:
		return e
	}
}

// read returns the symbolic current value of sig within the block.
func (ctx *blockCtx) read(sig *Signal, st *symState) Expr {
	if v, ok := st.cur[sig]; ok {
		return v
	}
	if !ctx.sequential && ctx.assigned[sig.Name] {
		// Combinational read-before-write on this path.
		return &latch{Sig: sig}
	}
	return &Ref{Sig: sig}
}

// pending returns the value that will be committed for sig (used as the
// "old" value for partial writes and merges).
func (ctx *blockCtx) pending(sig *Signal, st *symState) Expr {
	if v, ok := st.fin[sig]; ok {
		return v
	}
	if ctx.sequential {
		return &Ref{Sig: sig} // hold
	}
	return &latch{Sig: sig}
}

func (ctx *blockCtx) exec(s verilog.Stmt, st *symState, path Expr) error {
	el := ctx.el
	switch stmt := s.(type) {
	case *verilog.BlockStmt:
		for _, sub := range stmt.Stmts {
			if err := ctx.exec(sub, st, path); err != nil {
				return err
			}
		}
		return nil

	case *verilog.NullStmt:
		return nil

	case *verilog.AssignStmt:
		sig := el.d.Signal(stmt.LHS.Name)
		if sig == nil {
			return fmt.Errorf("line %d: assignment to undeclared signal %s", stmt.Line, stmt.LHS.Name)
		}
		if sig.Kind == SigInput {
			return fmt.Errorf("line %d: procedural assignment drives input %s", stmt.Line, sig.Name)
		}
		rhs, err := el.elabExpr(stmt.RHS)
		if err != nil {
			return err
		}
		rhs = ctx.subst(rhs, st)
		el.d.Cover.add(PointLine, stmt.Line, fmt.Sprintf("%s %s ...", stmt.LHS, assignOp(stmt.Blocking)), path)
		el.recordExprPoints(rhs, stmt.Line)

		newVal, err := ctx.writeLValue(sig, stmt.LHS, rhs, st, stmt.Line)
		if err != nil {
			return err
		}
		st.fin[sig] = newVal
		if stmt.Blocking {
			st.cur[sig] = newVal
		}
		return nil

	case *verilog.IfStmt:
		cond, err := el.elabExpr(stmt.Cond)
		if err != nil {
			return err
		}
		cond = boolify(ctx.subst(cond, st))
		condDesc := verilog.ExprString(stmt.Cond)
		el.d.Cover.add(PointLine, stmt.Line, "if ("+condDesc+")", path)
		el.d.Cover.add(PointBranch, stmt.Line, "if ("+condDesc+") taken", and1(path, cond))
		el.d.Cover.add(PointBranch, stmt.Line, "if ("+condDesc+") not taken", and1(path, not1(cond)))
		el.recordConditionPoints(cond, stmt.Line, condDesc)
		el.recordExprPoints(cond, stmt.Line)

		thenSt := st.clone()
		if err := ctx.exec(stmt.Then, thenSt, and1(path, cond)); err != nil {
			return err
		}
		elseSt := st.clone()
		if stmt.Else != nil {
			if err := ctx.exec(stmt.Else, elseSt, and1(path, not1(cond))); err != nil {
				return err
			}
		}
		ctx.merge(st, cond, thenSt, elseSt)
		return nil

	case *verilog.CaseStmt:
		return ctx.execCase(stmt, st, path)

	default:
		return fmt.Errorf("unsupported statement %T", s)
	}
}

// execCase lowers a case statement to a priority if-chain (first matching
// label wins) by recursing arm by arm.
func (ctx *blockCtx) execCase(cs *verilog.CaseStmt, st *symState, path Expr) error {
	el := ctx.el
	subj, err := el.elabExpr(cs.Subject)
	if err != nil {
		return err
	}
	subj = ctx.subst(subj, st)
	subjDesc := verilog.ExprString(cs.Subject)
	el.d.Cover.add(PointLine, cs.Line, "case ("+subjDesc+")", path)

	var defaultBody verilog.Stmt
	type arm struct {
		cond Expr
		body verilog.Stmt
		line int
		desc string
	}
	var arms []arm
	for _, item := range cs.Items {
		if item.Labels == nil {
			if defaultBody != nil {
				return fmt.Errorf("line %d: multiple default arms", item.Line)
			}
			defaultBody = item.Body
			continue
		}
		var cond Expr
		var descs []string
		for _, lab := range item.Labels {
			le, err := el.elabExpr(lab)
			if err != nil {
				return err
			}
			le = ctx.subst(le, st)
			w := maxInt(subj.Width(), le.Width())
			eq := &Binary{Op: OpEq, A: extend(subj, w), B: extend(le, w), W: 1}
			if cond == nil {
				cond = eq
			} else {
				cond = &Binary{Op: OpLogOr, A: cond, B: eq, W: 1}
			}
			descs = append(descs, verilog.ExprString(lab))
		}
		el.recordExprPoints(cond, item.Line)
		arms = append(arms, arm{cond: cond, body: item.Body, line: item.Line,
			desc: fmt.Sprintf("case %s: %v", subjDesc, descs)})
	}

	// Recursive if-chain.
	var chain func(i int, st *symState, path Expr) error
	chain = func(i int, st *symState, path Expr) error {
		if i == len(arms) {
			if defaultBody != nil {
				el.d.Cover.add(PointBranch, cs.Line, "case ("+subjDesc+") default", path)
				return ctx.exec(defaultBody, st, path)
			}
			return nil
		}
		a := arms[i]
		el.d.Cover.add(PointBranch, a.line, a.desc, and1(path, a.cond))
		thenSt := st.clone()
		if err := ctx.exec(a.body, thenSt, and1(path, a.cond)); err != nil {
			return err
		}
		elseSt := st.clone()
		if err := chain(i+1, elseSt, and1(path, not1(a.cond))); err != nil {
			return err
		}
		ctx.merge(st, a.cond, thenSt, elseSt)
		return nil
	}
	return chain(0, st, path)
}

// merge folds the two branch states back into st with muxes on cond.
func (ctx *blockCtx) merge(st *symState, cond Expr, thenSt, elseSt *symState) {
	mergeMap := func(get func(*symState) map[*Signal]Expr, def func(*Signal) Expr) {
		seen := map[*Signal]bool{}
		for sig := range get(thenSt) {
			seen[sig] = true
		}
		for sig := range get(elseSt) {
			seen[sig] = true
		}
		for sig := range seen {
			tv, tok := get(thenSt)[sig]
			ev, eok := get(elseSt)[sig]
			if !tok {
				tv = def(sig)
			}
			if !eok {
				ev = def(sig)
			}
			if tok && eok && tv == ev {
				get(st)[sig] = tv
				continue
			}
			w := maxInt(tv.Width(), ev.Width())
			get(st)[sig] = &Mux{Cond: cond, T: extend(tv, w), F: extend(ev, w), W: w}
		}
	}
	mergeMap(func(s *symState) map[*Signal]Expr { return s.cur },
		func(sig *Signal) Expr { return ctx.read(sig, st) })
	mergeMap(func(s *symState) map[*Signal]Expr { return s.fin },
		func(sig *Signal) Expr { return ctx.pending(sig, st) })
}

// writeLValue computes the full-width new value of sig after assigning rhs to
// the (possibly partial) lvalue.
func (ctx *blockCtx) writeLValue(sig *Signal, lv verilog.LValue, rhs Expr, st *symState, line int) (Expr, error) {
	switch {
	case lv.Index == nil && !lv.HasRange:
		return extend(rhs, sig.Width), nil

	case lv.HasRange:
		msb, lsb := lv.MSB, lv.LSB
		if msb < lsb || msb >= sig.Width || lsb < 0 {
			return nil, fmt.Errorf("line %d: part-select [%d:%d] out of bounds for %s[%d]", line, msb, lsb, sig.Name, sig.Width)
		}
		old := ctx.pending(sig, st)
		return insertBits(old, extend(rhs, msb-lsb+1), msb, lsb, sig.Width), nil

	default: // bit select
		old := ctx.pending(sig, st)
		bit := extend(rhs, 1)
		if cv, ok := constOf(lv.Index); ok {
			if int(cv) >= sig.Width {
				return nil, fmt.Errorf("line %d: bit-select [%d] out of bounds for %s[%d]", line, cv, sig.Name, sig.Width)
			}
			return insertBits(old, bit, int(cv), int(cv), sig.Width), nil
		}
		idx, err := ctx.el.elabExpr(lv.Index)
		if err != nil {
			return nil, err
		}
		idx = ctx.subst(idx, st)
		// Dynamic index: per-bit mux.
		parts := make([]Expr, sig.Width) // MSB first for Concat
		for j := 0; j < sig.Width; j++ {
			sel := &Binary{Op: OpEq, A: idx, B: NewConst(uint64(j), idx.Width()), W: 1}
			oldBit := selectBit(old, j)
			parts[sig.Width-1-j] = &Mux{Cond: sel, T: bit, F: oldBit, W: 1}
		}
		return newConcat(parts), nil
	}
}

// insertBits replaces bits [msb:lsb] of old (width w) with val.
func insertBits(old, val Expr, msb, lsb, w int) Expr {
	var parts []Expr // MSB first
	if msb < w-1 {
		parts = append(parts, &Slice{X: old, MSB: w - 1, LSB: msb + 1})
	}
	parts = append(parts, val)
	if lsb > 0 {
		parts = append(parts, &Slice{X: old, MSB: lsb - 1, LSB: 0})
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return newConcat(parts)
}

func selectBit(e Expr, bit int) Expr {
	if e.Width() == 1 && bit == 0 {
		return e
	}
	return &Select{X: e, Bit: bit}
}

// ---------------------------------------------------------------------------
// Expression elaboration
// ---------------------------------------------------------------------------

func (el *elaborator) elabExpr(e verilog.Expr) (Expr, error) {
	switch x := e.(type) {
	case *verilog.Ident:
		sig := el.d.Signal(x.Name)
		if sig == nil {
			return nil, fmt.Errorf("line %d: undeclared signal %s", x.Line, x.Name)
		}
		if sig.Name == el.d.Clock {
			return nil, fmt.Errorf("line %d: clock %s used as data", x.Line, x.Name)
		}
		return &Ref{Sig: sig}, nil

	case *verilog.Number:
		w := x.Width
		if w == 0 {
			w = bits.Len64(x.Value)
			if w == 0 {
				w = 1
			}
		}
		return NewConst(x.Value, w), nil

	case *verilog.Unary:
		sub, err := el.elabExpr(x.X)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "~":
			return &Unary{Op: OpNot, X: sub, W: sub.Width()}, nil
		case "!":
			return &Unary{Op: OpLogNot, X: boolify(sub), W: 1}, nil
		case "-":
			return &Unary{Op: OpNeg, X: sub, W: sub.Width()}, nil
		case "&":
			return &Unary{Op: OpRedAnd, X: sub, W: 1}, nil
		case "|":
			return &Unary{Op: OpRedOr, X: sub, W: 1}, nil
		case "^":
			return &Unary{Op: OpRedXor, X: sub, W: 1}, nil
		case "~&":
			return not1(&Unary{Op: OpRedAnd, X: sub, W: 1}), nil
		case "~|":
			return not1(&Unary{Op: OpRedOr, X: sub, W: 1}), nil
		case "~^":
			return not1(&Unary{Op: OpRedXor, X: sub, W: 1}), nil
		}
		return nil, fmt.Errorf("line %d: unsupported unary operator %q", x.Line, x.Op)

	case *verilog.Binary:
		a, err := el.elabExpr(x.A)
		if err != nil {
			return nil, err
		}
		b, err := el.elabExpr(x.B)
		if err != nil {
			return nil, err
		}
		op, ok := binOpFromString(x.Op)
		if !ok {
			return nil, fmt.Errorf("line %d: unsupported binary operator %q", x.Line, x.Op)
		}
		switch {
		case op == OpLogAnd || op == OpLogOr:
			return &Binary{Op: op, A: boolify(a), B: boolify(b), W: 1}, nil
		case op.IsBoolOp(): // comparisons
			w := maxInt(a.Width(), b.Width())
			return &Binary{Op: op, A: extend(a, w), B: extend(b, w), W: 1}, nil
		case op == OpShl || op == OpShr:
			return &Binary{Op: op, A: a, B: b, W: a.Width()}, nil
		default:
			w := maxInt(a.Width(), b.Width())
			return &Binary{Op: op, A: extend(a, w), B: extend(b, w), W: w}, nil
		}

	case *verilog.Ternary:
		cond, err := el.elabExpr(x.Cond)
		if err != nil {
			return nil, err
		}
		t, err := el.elabExpr(x.Then)
		if err != nil {
			return nil, err
		}
		f, err := el.elabExpr(x.Else)
		if err != nil {
			return nil, err
		}
		w := maxInt(t.Width(), f.Width())
		return &Mux{Cond: boolify(cond), T: extend(t, w), F: extend(f, w), W: w}, nil

	case *verilog.Index:
		sub, err := el.elabExpr(x.X)
		if err != nil {
			return nil, err
		}
		if cv, ok := constOf(x.Idx); ok {
			if int(cv) >= sub.Width() {
				return nil, fmt.Errorf("line %d: bit-select [%d] out of bounds (width %d)", x.Line, cv, sub.Width())
			}
			return selectBit(sub, int(cv)), nil
		}
		idx, err := el.elabExpr(x.Idx)
		if err != nil {
			return nil, err
		}
		// Dynamic select: mux chain over the bits.
		var out Expr = selectBit(sub, 0)
		for j := 1; j < sub.Width(); j++ {
			sel := &Binary{Op: OpEq, A: idx, B: NewConst(uint64(j), idx.Width()), W: 1}
			out = &Mux{Cond: sel, T: selectBit(sub, j), F: out, W: 1}
		}
		return out, nil

	case *verilog.Slice:
		sub, err := el.elabExpr(x.X)
		if err != nil {
			return nil, err
		}
		if x.MSB < x.LSB || x.MSB >= sub.Width() || x.LSB < 0 {
			return nil, fmt.Errorf("line %d: part-select [%d:%d] out of bounds (width %d)", x.Line, x.MSB, x.LSB, sub.Width())
		}
		if x.LSB == 0 && x.MSB == sub.Width()-1 {
			return sub, nil
		}
		return &Slice{X: sub, MSB: x.MSB, LSB: x.LSB}, nil

	case *verilog.Concat:
		parts := make([]Expr, len(x.Parts))
		for i, pe := range x.Parts {
			sub, err := el.elabExpr(pe)
			if err != nil {
				return nil, err
			}
			parts[i] = sub
		}
		c := newConcat(parts)
		if c.Width() > 64 {
			return nil, fmt.Errorf("line %d: concatenation wider than 64 bits", x.Line)
		}
		return c, nil

	case *verilog.Repl:
		sub, err := el.elabExpr(x.X)
		if err != nil {
			return nil, err
		}
		if x.Count*sub.Width() > 64 {
			return nil, fmt.Errorf("line %d: replication wider than 64 bits", x.Line)
		}
		parts := make([]Expr, x.Count)
		for i := range parts {
			parts[i] = sub
		}
		return newConcat(parts), nil

	default:
		return nil, fmt.Errorf("unsupported expression %T", e)
	}
}

func binOpFromString(op string) (BinOp, bool) {
	switch op {
	case "&":
		return OpAnd, true
	case "|":
		return OpOr, true
	case "^":
		return OpXor, true
	case "~^":
		return OpXnor, true
	case "&&":
		return OpLogAnd, true
	case "||":
		return OpLogOr, true
	case "+":
		return OpAdd, true
	case "-":
		return OpSub, true
	case "*":
		return OpMul, true
	case "==":
		return OpEq, true
	case "!=":
		return OpNe, true
	case "<":
		return OpLt, true
	case "<=":
		return OpLe, true
	case ">":
		return OpGt, true
	case ">=":
		return OpGe, true
	case "<<":
		return OpShl, true
	case ">>":
		return OpShr, true
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// Coverage instrumentation helpers
// ---------------------------------------------------------------------------

// recordExprPoints registers expression-coverage points. Every 1-bit
// operator node gets a both-values point; 1-bit binary boolean operators
// additionally get four operand-minterm points (sum-of-products style), so
// expression coverage is bounded below 100% when some operand combinations
// are unreachable — matching the behaviour of the commercial metric the
// paper reports.
func (el *elaborator) recordExprPoints(rhs Expr, line int) {
	walk(rhs, func(n Expr) {
		switch x := n.(type) {
		case *Unary, *Mux:
			if n.Width() == 1 {
				el.d.Cover.add(PointExpression, line, String(n), n)
			}
		case *Binary:
			if x.W != 1 {
				return
			}
			el.d.Cover.add(PointExpression, line, String(n), n)
			switch x.Op {
			case OpAnd, OpOr, OpXor, OpXnor, OpLogAnd, OpLogOr:
				if x.A.Width() != 1 || x.B.Width() != 1 {
					return
				}
				for combo := 0; combo < 4; combo++ {
					av, bv := combo&1 == 1, combo&2 == 2
					pa, pb := x.A, x.B
					if !av {
						pa = not1(pa)
					}
					if !bv {
						pb = not1(pb)
					}
					desc := fmt.Sprintf("%s with (%d,%d)", String(n), b2i(av), b2i(bv))
					el.d.Cover.add(PointMinterm, line, desc, and1(pa, pb))
				}
			}
		}
	})
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// recordConditionPoints registers the atomic conditions of a decision.
func (el *elaborator) recordConditionPoints(cond Expr, line int, desc string) {
	for _, atom := range atomsOf(cond) {
		el.d.Cover.add(PointCondition, line, String(atom)+" in ("+desc+")", atom)
	}
}

// atomsOf decomposes a 1-bit decision into its atomic conditions: operands of
// logical (or 1-bit bitwise) and/or/not chains.
func atomsOf(e Expr) []Expr {
	switch x := e.(type) {
	case *Binary:
		if x.W == 1 && (x.Op == OpLogAnd || x.Op == OpLogOr || x.Op == OpAnd || x.Op == OpOr) {
			return append(atomsOf(x.A), atomsOf(x.B)...)
		}
	case *Unary:
		if x.W == 1 && (x.Op == OpLogNot || x.Op == OpNot) {
			return atomsOf(x.X)
		}
	}
	if _, isConst := e.(*Const); isConst {
		return nil
	}
	return []Expr{e}
}

func (el *elaborator) collectToggleSignals() {
	for _, s := range el.d.Signals {
		if s.Name == el.d.Clock {
			continue
		}
		el.d.Cover.ToggleSignals = append(el.d.Cover.ToggleSignals, s)
	}
}

// detectFSMs finds registers that are compared against constants somewhere
// in the design and assigned constants in their next-state logic.
func (el *elaborator) detectFSMs() {
	compared := map[*Signal]bool{}
	note := func(e Expr) {
		walk(e, func(n Expr) {
			if b, ok := n.(*Binary); ok && (b.Op == OpEq || b.Op == OpNe) {
				ra, aIsRef := b.A.(*Ref)
				_, bIsConst := b.B.(*Const)
				if aIsRef && bIsConst && ra.Sig.IsState {
					compared[ra.Sig] = true
				}
				rb, bIsRef := b.B.(*Ref)
				_, aIsConst := b.A.(*Const)
				if bIsRef && aIsConst && rb.Sig.IsState {
					compared[rb.Sig] = true
				}
			}
		})
	}
	for _, e := range el.d.Comb {
		note(e)
	}
	for _, e := range el.d.Next {
		note(e)
	}
	for reg, next := range el.d.Next {
		if !compared[reg] {
			continue
		}
		states := map[uint64]bool{}
		var leaves func(e Expr)
		leaves = func(e Expr) {
			switch x := e.(type) {
			case *Mux:
				leaves(x.T)
				leaves(x.F)
			case *Const:
				states[x.Val] = true
			}
		}
		leaves(next)
		if len(states) < 2 {
			continue
		}
		var list []uint64
		for v := range states {
			list = append(list, v)
		}
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		el.d.Cover.FSMs = append(el.d.Cover.FSMs, FSMInfo{Reg: reg, States: list})
	}
	sort.Slice(el.d.Cover.FSMs, func(i, j int) bool {
		return el.d.Cover.FSMs[i].Reg.Name < el.d.Cover.FSMs[j].Reg.Name
	})
}

// checkDriven verifies every signal read somewhere has a driver.
func (el *elaborator) checkDriven() error {
	driven := map[*Signal]bool{}
	for _, s := range el.d.Signals {
		if s.Kind == SigInput || s.IsState {
			driven[s] = true
		}
	}
	for s := range el.d.Comb {
		driven[s] = true
	}
	var reads map[*Signal]bool
	for _, e := range el.d.Comb {
		reads = Support(e, reads)
	}
	for _, e := range el.d.Next {
		reads = Support(e, reads)
	}
	for s := range reads {
		if !driven[s] {
			return fmt.Errorf("signal %s is read but never driven", s.Name)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

func assignOp(blocking bool) string {
	if blocking {
		return "="
	}
	return "<="
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// extend adjusts e to width w by zero-extension or truncation.
func extend(e Expr, w int) Expr {
	cw := e.Width()
	switch {
	case cw == w:
		return e
	case cw > w:
		if c, ok := e.(*Const); ok {
			return NewConst(c.Val, w)
		}
		if w == 1 {
			return selectBit(e, 0)
		}
		return &Slice{X: e, MSB: w - 1, LSB: 0}
	default:
		if c, ok := e.(*Const); ok {
			return NewConst(c.Val, w)
		}
		return newConcat([]Expr{NewConst(0, w-cw), e})
	}
}

// boolify reduces e to one bit (reduction-or for wide values).
func boolify(e Expr) Expr {
	if e.Width() == 1 {
		return e
	}
	return &Unary{Op: OpRedOr, X: e, W: 1}
}

func not1(e Expr) Expr {
	if c, ok := e.(*Const); ok {
		return ConstBool(c.Val == 0)
	}
	return &Unary{Op: OpLogNot, X: e, W: 1}
}

func and1(a, b Expr) Expr {
	if c, ok := a.(*Const); ok {
		if c.Val == 0 {
			return ConstBool(false)
		}
		return b
	}
	if c, ok := b.(*Const); ok {
		if c.Val == 0 {
			return ConstBool(false)
		}
		return a
	}
	return &Binary{Op: OpLogAnd, A: a, B: b, W: 1}
}

// Boolify exposes 1-bit reduction to other packages.
func Boolify(e Expr) Expr { return boolify(e) }

// Extend exposes width adjustment to other packages.
func Extend(e Expr, w int) Expr { return extend(e, w) }

func newConcat(parts []Expr) Expr {
	w := 0
	for _, p := range parts {
		w += p.Width()
	}
	return &Concat{Parts: parts, W: w}
}

// NewConcat builds a concatenation (parts MSB-first).
func NewConcat(parts []Expr) Expr { return newConcat(parts) }

func constOf(e verilog.Expr) (uint64, bool) {
	if n, ok := e.(*verilog.Number); ok {
		return n.Value, true
	}
	return 0, false
}
