// Package mine implements the A-Miner of the GoldMine flow: a decision-tree
// supervised learner over windowed boolean trace data, plus the paper's
// incremental decision tree (Section 3). Leaves with zero error are candidate
// assertions (100% confidence: a single contradicting row discards a rule).
// When a counterexample row is added, only the leaf on the failed assertion's
// path becomes impure and is split further; the variable ordering of all
// existing internal nodes is preserved (Definition 6).
package mine

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"goldmine/internal/assertion"
	"goldmine/internal/trace"
)

// ErrProvedContradicted reports that new trace rows contradicted a leaf whose
// assertion had already been formally proved — either the prover or the
// simulator is unsound for this design. The leaf is demoted (Proved cleared,
// Stuck set) so mining can continue around it.
var ErrProvedContradicted = errors.New("mine: proved leaf contradicted by new data")

// Node is a decision-tree node. Var < 0 marks a leaf; otherwise Zero/One are
// the subtrees for the split variable's two values.
type Node struct {
	Var       int
	Zero, One *Node

	// Rows are dataset row indices reaching this node.
	Rows []int
	// Mean is the average target value of Rows (the prediction M); Err is
	// the sum of squared errors against Mean (E). A leaf with Err == 0 is a
	// 100%-confidence candidate.
	Mean float64
	Err  float64

	// Depth is the number of split decisions above this node.
	Depth int

	// Proved marks a leaf whose candidate assertion passed formal
	// verification; Stuck marks an impure leaf with no usable split
	// variables even after window extension.
	Proved bool
	Stuck  bool
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Var < 0 }

// Pure reports whether every row agrees with the prediction.
func (n *Node) Pure() bool { return n.Err == 0 }

// PredictedValue is the rounded prediction at the node.
func (n *Node) PredictedValue() uint64 {
	if n.Mean >= 0.5 {
		return 1
	}
	return 0
}

// Leaf couples a leaf node with its root path.
type Leaf struct {
	Node *Node
	// Path lists (var index, value) split decisions from the root.
	Path []PathStep
}

// PathStep is one split decision.
type PathStep struct {
	Var   int
	Value byte
}

// Tree is a (possibly incrementally grown) decision tree for one output bit.
type Tree struct {
	DS   *trace.Dataset
	Root *Node

	// Splits counts total split decisions made (monitoring Theorem 1's
	// bound).
	Splits int
}

// Build constructs a fresh decision tree over all dataset rows. An empty
// dataset yields a single leaf predicting 0 ("output always 0"), the
// zero-pattern starting point of Section 7.2.
func Build(ds *trace.Dataset) *Tree {
	t := &Tree{DS: ds}
	rows := make([]int, ds.Rows())
	for i := range rows {
		rows[i] = i
	}
	t.Root = &Node{Var: -1, Rows: rows}
	t.recompute(t.Root)
	t.grow(t.Root, nil)
	return t
}

// recompute refreshes Mean and Err from the node's rows.
func (t *Tree) recompute(n *Node) {
	if len(n.Rows) == 0 {
		n.Mean = 0
		n.Err = 0
		return
	}
	ones := 0
	for _, r := range n.Rows {
		ones += int(t.DS.Target(r))
	}
	n.Mean = float64(ones) / float64(len(n.Rows))
	// SSE for a Bernoulli split: ones*(1-mean)^2 + zeros*mean^2.
	zeros := float64(len(n.Rows) - ones)
	n.Err = float64(ones)*(1-n.Mean)*(1-n.Mean) + zeros*n.Mean*n.Mean
}

// usedOnPath collects the variables already split on along a path.
func usedOnPath(path []PathStep) map[int]bool {
	used := map[int]bool{}
	for _, st := range path {
		used[st.Var] = true
	}
	return used
}

// grow recursively splits an impure node. It assumes n.Rows/Mean/Err are
// current. The path identifies used variables.
func (t *Tree) grow(n *Node, path []PathStep) {
	if n.Err == 0 {
		return // pure leaf (or empty): candidate assertion
	}
	used := usedOnPath(path)
	v := t.selectSplit(n, used)
	if v < 0 {
		// No variable splits the rows: activate the farthest-back state
		// variables (window extension, Section 3.1) and retry once.
		if t.DS.Extend() {
			v = t.selectSplit(n, used)
		}
		if v < 0 {
			n.Stuck = true
			return
		}
	}
	t.splitOn(n, v, path)
}

// splitOn turns leaf n into an internal node splitting on variable v.
func (t *Tree) splitOn(n *Node, v int, path []PathStep) {
	n.Var = v
	n.Stuck = false
	t.Splits++
	zero := &Node{Var: -1, Depth: n.Depth + 1}
	one := &Node{Var: -1, Depth: n.Depth + 1}
	for _, r := range n.Rows {
		if t.DS.Value(r, v) == 0 {
			zero.Rows = append(zero.Rows, r)
		} else {
			one.Rows = append(one.Rows, r)
		}
	}
	n.Zero, n.One = zero, one
	t.recompute(zero)
	t.recompute(one)
	t.grow(zero, append(path, PathStep{Var: v, Value: 0}))
	t.grow(one, append(path, PathStep{Var: v, Value: 1}))
}

// selectSplit picks the unused variable that minimizes the children's summed
// error, requiring a non-trivial partition. Ties break toward the lowest
// variable index for determinism. Returns -1 when nothing splits.
func (t *Tree) selectSplit(n *Node, used map[int]bool) int {
	best := -1
	bestErr := 0.0
	for v := 0; v < t.DS.NumVars(); v++ {
		if used[v] {
			continue
		}
		var n0, n1, o0, o1 int
		for _, r := range n.Rows {
			if t.DS.Value(r, v) == 0 {
				n0++
				o0 += int(t.DS.Target(r))
			} else {
				n1++
				o1 += int(t.DS.Target(r))
			}
		}
		if n0 == 0 || n1 == 0 {
			continue
		}
		err := sse(n0, o0) + sse(n1, o1)
		if best < 0 || err < bestErr {
			best = v
			bestErr = err
		}
	}
	return best
}

func sse(n, ones int) float64 {
	if n == 0 {
		return 0
	}
	mean := float64(ones) / float64(n)
	return float64(ones)*(1-mean)*(1-mean) + float64(n-ones)*mean*mean
}

// AddRows routes freshly appended dataset rows down the tree, recomputing
// statistics along each path and resplitting any leaf that becomes impure.
// Existing split variables are never changed (incremental tree,
// Definition 6). If a proved leaf is contradicted it is demoted to stuck and
// an error wrapping ErrProvedContradicted is returned; the remaining leaves
// are still processed, so the tree stays usable.
func (t *Tree) AddRows(rowIdx []int) error {
	type touch struct {
		node *Node
		path []PathStep
	}
	touched := map[*Node]touch{}
	for _, r := range rowIdx {
		n := t.Root
		var path []PathStep
		for {
			n.Rows = append(n.Rows, r)
			t.recompute(n)
			if n.IsLeaf() {
				touched[n] = touch{node: n, path: append([]PathStep(nil), path...)}
				break
			}
			val := t.DS.Value(r, n.Var)
			path = append(path, PathStep{Var: n.Var, Value: val})
			if val == 0 {
				n = n.Zero
			} else {
				n = n.One
			}
		}
	}
	// Deterministic processing order.
	var order []touch
	for _, tc := range touched {
		order = append(order, tc)
	}
	sort.Slice(order, func(i, j int) bool {
		return pathKey(order[i].path) < pathKey(order[j].path)
	})
	var errs error
	for _, tc := range order {
		n := tc.node
		if n.Err > 0 {
			// A proved leaf can never be contradicted by real behaviour: its
			// assertion holds on all reachable traces. Demote it rather than
			// corrupting the proof bookkeeping by resplitting it.
			if n.Proved {
				n.Proved = false
				n.Stuck = true
				errs = errors.Join(errs, fmt.Errorf("%w (path %s)", ErrProvedContradicted, pathKey(tc.path)))
				continue
			}
			t.grow(n, tc.path)
		}
	}
	return errs
}

func pathKey(path []PathStep) string {
	b := make([]byte, 0, 8*len(path))
	for _, st := range path {
		b = strconv.AppendInt(b, int64(st.Var), 10)
		b = append(b, '=')
		b = strconv.AppendUint(b, uint64(st.Value), 10)
		b = append(b, '/')
	}
	return string(b)
}

// Leaves returns all leaves with their paths, in left-to-right order.
func (t *Tree) Leaves() []Leaf {
	var out []Leaf
	var walk func(n *Node, path []PathStep)
	walk = func(n *Node, path []PathStep) {
		if n.IsLeaf() {
			out = append(out, Leaf{Node: n, Path: append([]PathStep(nil), path...)})
			return
		}
		walk(n.Zero, append(path, PathStep{Var: n.Var, Value: 0}))
		walk(n.One, append(path, PathStep{Var: n.Var, Value: 1}))
	}
	walk(t.Root, nil)
	return out
}

// Assertion builds the candidate assertion of a pure leaf: the conjunction of
// path propositions implies the predicted output value. Returns nil for
// impure or empty-path-with-nonzero-error leaves.
func (t *Tree) Assertion(lf Leaf) *assertion.Assertion {
	n := lf.Node
	if !n.Pure() {
		return nil
	}
	a := &assertion.Assertion{
		Output:     t.DS.Out.Name,
		Consequent: t.DS.TargetProp(n.PredictedValue()),
		Window:     t.DS.Window,
		Confidence: 1.0,
		Support:    len(n.Rows),
	}
	for _, st := range lf.Path {
		a.Antecedent = append(a.Antecedent, t.DS.Var(st.Var).Prop(uint64(st.Value)))
	}
	a.Normalize()
	return a
}

// Candidates returns the unproved pure leaves paired with their candidate
// assertions — the assertions due for formal verification this iteration.
// Stuck leaves are skipped: retrying a leaf whose check already timed out or
// faulted would livelock the refinement loop.
func (t *Tree) Candidates() []Candidate {
	var out []Candidate
	for _, lf := range t.Leaves() {
		if lf.Node.Proved || lf.Node.Stuck || !lf.Node.Pure() {
			continue
		}
		if a := t.Assertion(lf); a != nil {
			out = append(out, Candidate{Leaf: lf, Assertion: a})
		}
	}
	return out
}

// Candidate pairs a leaf with its assertion.
type Candidate struct {
	Leaf      Leaf
	Assertion *assertion.Assertion
}

// Converged reports whether every leaf holds a proved assertion — the final
// decision tree F_z of Definition 7.
func (t *Tree) Converged() bool {
	for _, lf := range t.Leaves() {
		if !lf.Node.Proved {
			return false
		}
	}
	return true
}

// Predict routes a feature assignment down the tree and returns the leaf's
// predicted output value plus the leaf itself. The get function supplies the
// value of each feature column.
func (t *Tree) Predict(get func(v trace.VarRef) byte) (uint64, *Node) {
	n := t.Root
	for !n.IsLeaf() {
		if get(t.DS.Var(n.Var)) == 0 {
			n = n.Zero
		} else {
			n = n.One
		}
	}
	return n.PredictedValue(), n
}

// Stats summarizes tree shape.
type Stats struct {
	Nodes, Leaves, ProvedLeaves, StuckLeaves, MaxDepth int
}

// Stats computes size statistics.
func (t *Tree) Stats() Stats {
	var st Stats
	var walk func(n *Node)
	walk = func(n *Node) {
		st.Nodes++
		if n.Depth > st.MaxDepth {
			st.MaxDepth = n.Depth
		}
		if n.IsLeaf() {
			st.Leaves++
			if n.Proved {
				st.ProvedLeaves++
			}
			if n.Stuck {
				st.StuckLeaves++
			}
			return
		}
		walk(n.Zero)
		walk(n.One)
	}
	walk(t.Root)
	return st
}

// String renders the tree for diagnostics.
func (t *Tree) String() string {
	b := &strings.Builder{}
	var walk func(n *Node, indent string)
	walk = func(n *Node, indent string) {
		if n.IsLeaf() {
			status := ""
			if n.Proved {
				status = " [proved]"
			} else if n.Stuck {
				status = " [stuck]"
			} else if n.Pure() {
				status = " [candidate]"
			}
			fmt.Fprintf(b, "%sleaf M=%.2f E=%.2f rows=%d%s\n", indent, n.Mean, n.Err, len(n.Rows), status)
			return
		}
		fmt.Fprintf(b, "%s%s (M=%.2f E=%.2f rows=%d)\n", indent, t.DS.Var(n.Var).Name(), n.Mean, n.Err, len(n.Rows))
		fmt.Fprintf(b, "%s=0:\n", indent)
		walk(n.Zero, indent+"  ")
		fmt.Fprintf(b, "%s=1:\n", indent)
		walk(n.One, indent+"  ")
	}
	walk(t.Root, "")
	return b.String()
}
