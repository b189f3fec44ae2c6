// Difficulty prediction: a per-Checker model of how much SAT work an
// assertion's check will cost, learned from the checks already done. The
// scheduler (core/sched) orders a batch of checks hardest-first so a worker
// pool is never left with one hard property serializing the tail of a round
// (classic makespan scheduling: LPT order).
//
// The model is deliberately tiny: checks are bucketed by the bit-width of the
// assertion's cone of influence (log2 of input+state bits — the strongest
// static predictor of formula size), and each bucket keeps a running mean of
// observed SAT propagations. Cold buckets predict "hard" (they sort first);
// three samples suffice to score a bucket by its measured mean. The observed
// costs also feed the mc.solve_work telemetry histogram, so operators see the
// same distribution the predictor acts on.
package mc

import (
	"math/bits"
	"sync"

	"goldmine/internal/assertion"
	"goldmine/internal/cone"
	"goldmine/internal/rtl"
)

// hardWorkThreshold is the bucket-mean propagation count above which a check
// is predicted hard.
const hardWorkThreshold = 4096

// difficultyMinSamples is how many observations a bucket needs before its
// mean overrides the optimistic cold-start prediction.
const difficultyMinSamples = 3

// difficultyBuckets covers cone breadths up to 2^31 bits (bits.Len of an int
// breadth plus slack).
const difficultyBuckets = 34

// costBucket accumulates the observed SAT propagations of one cone shape.
type costBucket struct {
	n, props int64
}

// difficulty is the Checker's learned cost model. Guarded by its own mutex:
// checks from many goroutines record into it.
type difficulty struct {
	mu      sync.Mutex
	buckets [difficultyBuckets]costBucket
}

// coneSignals returns the union of the sequential cones of every signal the
// assertion references.
func (c *Checker) coneSignals(a *assertion.Assertion) map[*rtl.Signal]bool {
	seen := map[*rtl.Signal]bool{}
	add := func(name string) {
		sig := c.d.Signal(name)
		if sig == nil {
			return
		}
		for s := range cone.Of(c.d, sig) {
			seen[s] = true
		}
	}
	for _, p := range a.Antecedent {
		add(p.Signal)
	}
	add(a.Consequent.Signal)
	return seen
}

// coneBreadth is the static size feature: total input and state bits in the
// assertion's cone of influence.
func (c *Checker) coneBreadth(a *assertion.Assertion) int {
	seen := c.coneSignals(a)
	b := 0
	for _, in := range cone.Inputs(c.d, seen) {
		b += in.Width
	}
	for _, r := range cone.StateVars(c.d, seen) {
		b += r.Width
	}
	return b
}

func coneBucketIndex(breadth int) int {
	i := bits.Len(uint(breadth))
	if i >= difficultyBuckets {
		i = difficultyBuckets - 1
	}
	return i
}

// PredictHard estimates the SAT work of checking a and reports whether the
// check is predicted hard. The score is a propagation-count estimate usable
// as a scheduling priority (higher = dispatch earlier); unseen cone shapes
// are optimistically scored by breadth so they sort ahead of known-easy work.
func (c *Checker) PredictHard(a *assertion.Assertion) (score int64, hard bool) {
	bk := coneBucketIndex(c.coneBreadth(a))
	c.diff.mu.Lock()
	b := c.diff.buckets[bk]
	c.diff.mu.Unlock()
	if b.n >= difficultyMinSamples {
		mean := b.props / b.n
		return mean, mean >= hardWorkThreshold
	}
	// Cold start: no evidence yet. Score by cone breadth, flagged hard.
	return hardWorkThreshold << uint(bk), true
}

// noteCheckCost records the SAT propagations one completed check consumed,
// updating the predictor bucket and the mc.solve_work histogram.
func (c *Checker) noteCheckCost(a *assertion.Assertion, props int64) {
	if props < 0 {
		props = 0
	}
	bk := coneBucketIndex(c.coneBreadth(a))
	c.diff.mu.Lock()
	b := &c.diff.buckets[bk]
	b.n++
	b.props += props
	c.diff.mu.Unlock()
	c.mtr.solveWork.Observe(props)
}
