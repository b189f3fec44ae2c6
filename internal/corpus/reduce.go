// Suite reduction: measure every corpus entry's contribution with a
// simulation oracle, then emit a minimal high-value suite by greedy
// marginal-gain selection.
//
// The oracle measures two things on a fixed deterministic reference
// stimulus:
//
//   - Mutant discrimination: the 64-lane batched fault regression
//     (mutate.SimCampaign) pins stuck-at faults into separate simulation
//     lanes; an entry's kill set is the set of faults whose lane makes it
//     fire a violation.
//   - Coverage contribution: one more, unforced lane of the same campaign
//     runs the fault-free design, and the packed monitor feeds its
//     activations to a hook; an entry's coverage set is the set of
//     (consequent, cycle) pairs where its antecedent matched — the design
//     behaviors the monitor actually watches over time.
//
// Both measures come from one packed evaluation per chunk
// (monitor.Monitor.RunPacked): no lane is transposed or replayed through a
// scalar monitor. Clustering depends on the corpus slice alone, so it is
// memoised on the Corpus and shared by every Reduce until an entry lands.
//
// Selection is greedy set cover over the union of both element spaces,
// running until the selected suite covers everything the full corpus covers.
// Retention of both measures is therefore 100% by construction; what the
// reduction buys is dropping every entry whose contribution is empty or
// already covered (duplicated behavior, vacuous monitors, subsumption
// specializations that survive outside their cluster).
//
// Determinism: candidates iterate in sorted order, ties break on (smaller
// monitor cost, then key), and the oracle itself is sequential — so the same
// corpus always reduces to the byte-identical suite, independent of how many
// workers mined it.
package corpus

import (
	"fmt"
	"sort"

	"goldmine/internal/assertion"
	"goldmine/internal/mutate"
	"goldmine/internal/rtl"
	"goldmine/internal/sim"
	"goldmine/internal/stimgen"
	"goldmine/internal/telemetry"
)

// Options tunes the reduction oracle. The zero value is a sensible default.
type Options struct {
	// Stim is the scoring stimulus; nil derives a deterministic random
	// stimulus of Cycles cycles from Seed.
	Stim sim.Stimulus
	// Cycles is the derived-stimulus length (0 = 256).
	Cycles int
	// Seed is the derived-stimulus seed (0 = 1).
	Seed int64
	// MaxFaults caps the stuck-at fault universe (0 = all signals). The cap
	// truncates the deterministic mutate.AllFaults order.
	MaxFaults int
	// Telemetry receives the oracle's sim.batch spans (may be nil).
	Telemetry *telemetry.Tracer
}

// Selected is one chosen monitor with the marginal gain that earned it.
type Selected struct {
	Entry *Entry
	// GainKills and GainWindows are the new faults killed / new coverage
	// elements contributed at selection time.
	GainKills   int
	GainWindows int
}

// Reduction is the outcome of reducing one design's corpus slice.
type Reduction struct {
	Design string
	// Total is the number of corpus entries for the design (the full
	// suite); Candidates is what survived cluster-level subsumption
	// collapse and entered greedy selection.
	Total      int
	Clusters   int
	Collapsed  int
	Candidates int
	// Cycles and Faults describe the oracle: stimulus length and fault
	// universe size.
	Cycles int
	Faults int
	// KillsFull / WindowsFull are the full corpus's measured contribution;
	// KillsSelected / WindowsSelected the reduced suite's (equal by
	// construction — greedy runs to full coverage).
	KillsFull, KillsSelected     int
	WindowsFull, WindowsSelected int
	// Vacuous counts entries that neither killed a fault nor activated on
	// the scoring stimulus; they can never be selected.
	Vacuous int
	// PropsFull / PropsSelected are the monitor cost (total propositions
	// evaluated per window) before and after reduction.
	PropsFull, PropsSelected int
	Selected                 []Selected
}

// KillRetention returns selected/full kill percentage (100 when the full
// corpus kills nothing).
func (r *Reduction) KillRetention() float64 {
	if r.KillsFull == 0 {
		return 100
	}
	return 100 * float64(r.KillsSelected) / float64(r.KillsFull)
}

// CoverRetention returns selected/full coverage percentage (100 when the
// full corpus covers nothing).
func (r *Reduction) CoverRetention() float64 {
	if r.WindowsFull == 0 {
		return 100
	}
	return 100 * float64(r.WindowsSelected) / float64(r.WindowsFull)
}

// Suite returns the reduced suite's assertions in selection order.
func (r *Reduction) Suite() []*assertion.Assertion {
	out := make([]*assertion.Assertion, len(r.Selected))
	for i, s := range r.Selected {
		out[i] = s.Entry.A
	}
	return out
}

// monitorProps is an entry's per-window evaluation cost.
func monitorProps(a *assertion.Assertion) int { return len(a.Antecedent) + 1 }

// Reduce runs the full pipeline — cluster, measure, select — on d's slice of
// the corpus.
func Reduce(d *rtl.Design, c *Corpus, opts Options) (*Reduction, error) {
	entries, clusters := c.designClusters(d)
	red := &Reduction{Design: d.Name, Total: len(entries)}
	if len(entries) == 0 {
		return red, nil
	}

	red.Clusters = len(clusters)
	var candidates []*Entry
	for _, cl := range clusters {
		red.Collapsed += cl.Collapsed()
		candidates = append(candidates, cl.Survivors...)
	}
	red.Candidates = len(candidates)

	cycles := opts.Cycles
	if cycles <= 0 {
		cycles = 256
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	stim := opts.Stim
	if stim == nil {
		stim = stimgen.Random(d, cycles, seed, 2)
	}
	red.Cycles = len(stim)
	faults := mutate.AllFaults(d)
	if opts.MaxFaults > 0 && len(faults) > opts.MaxFaults {
		faults = faults[:opts.MaxFaults]
	}
	red.Faults = len(faults)

	// The universe is measured over the FULL corpus, entries in sorted
	// order; element ids: faults occupy [0, len(faults)), coverage elements
	// (consequent atom x activation cycle) follow.
	asserts := make([]*assertion.Assertion, len(entries))
	index := map[*Entry]int{}
	for i, e := range entries {
		asserts[i] = e.A
		index[e] = i
	}
	elems, err := measure(d, asserts, faults, stim, opts.Telemetry)
	if err != nil {
		return nil, fmt.Errorf("corpus: reduce %s: %w", d.Name, err)
	}
	base := len(faults)

	// Sort the element lists (the clean lane's activations land before the
	// kills) and deduplicate them.
	nel := 0 // one past the largest element id
	for i := range elems {
		elems[i] = dedupInts(elems[i])
		if n := len(elems[i]); n > 0 {
			nel = max(nel, elems[i][n-1]+1)
		}
	}
	universe := make([]bool, nel)
	for _, els := range elems {
		for _, el := range els {
			universe[el] = true
		}
	}
	for _, e := range entries {
		red.PropsFull += monitorProps(e.A)
		if len(elems[index[e]]) == 0 {
			red.Vacuous++
		}
	}
	for el, in := range universe {
		switch {
		case !in:
		case el < base:
			red.KillsFull++
		default:
			red.WindowsFull++
		}
	}

	// Greedy marginal-gain selection over the candidates until the covered
	// set equals the full-corpus universe. The collapse in Clusters is
	// lossless (see cluster.go), so the candidates' union always reaches it.
	candElems := make([][]int, len(candidates))
	for i, cand := range candidates {
		candElems[i] = elems[index[cand]]
	}
	covered := make([]bool, nel)
	used := make([]bool, len(candidates))
	for {
		best, bestGain, bestCost := -1, 0, 0
		for i, cand := range candidates {
			if used[i] {
				continue
			}
			gain := 0
			for _, el := range candElems[i] {
				if !covered[el] {
					gain++
				}
			}
			cost := monitorProps(cand.A)
			switch {
			case gain == 0:
				continue
			case best < 0, gain > bestGain,
				gain == bestGain && cost < bestCost,
				gain == bestGain && cost == bestCost && cand.Key < candidates[best].Key:
				best, bestGain, bestCost = i, gain, cost
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		sel := Selected{Entry: candidates[best]}
		for _, el := range candElems[best] {
			if !covered[el] {
				covered[el] = true
				if el < base {
					sel.GainKills++
				} else {
					sel.GainWindows++
				}
			}
		}
		red.Selected = append(red.Selected, sel)
		red.PropsSelected += bestCost
		red.KillsSelected += sel.GainKills
		red.WindowsSelected += sel.GainWindows
	}
	return red, nil
}

// measure runs the oracle on stim and returns each assertion's elements:
// the faults whose lane makes it fire (ids [0, len(faults))), then the
// coverage elements of its activations on the fault-free lane of the same
// campaign (coverElem).
func measure(d *rtl.Design, asserts []*assertion.Assertion, faults []mutate.Fault, stim sim.Stimulus, tel *telemetry.Tracer) ([][]int, error) {
	elems := make([][]int, len(asserts))
	elem := coverElem(asserts, len(faults), len(stim))
	dets, err := mutate.SimCampaign(d, asserts, faults, stim, tel, func(ai, cycle int) {
		elems[ai] = append(elems[ai], elem(ai, cycle))
	})
	if err != nil {
		return nil, err
	}
	for fi, det := range dets {
		for _, ai := range det.Detecting {
			elems[ai] = append(elems[ai], fi)
		}
	}
	return elems, nil
}

// coverElem numbers coverage elements: (consequent atom, window-start cycle)
// pairs, from base on. Keeping them per-consequent means a reduced suite
// cannot trade away observability of one output for activity on another.
func coverElem(asserts []*assertion.Assertion, base, cycles int) func(ai, cycle int) int {
	consID := map[string]int{}
	consOf := make([]int, len(asserts))
	var atom []byte
	for i, a := range asserts {
		atom = a.Consequent.AppendAtom(atom[:0])
		id, ok := consID[string(atom)]
		if !ok {
			id = len(consID)
			consID[string(atom)] = id
		}
		consOf[i] = id
	}
	span := cycles + 1
	return func(ai, cycle int) int { return base + consOf[ai]*span + cycle }
}

// dedupInts sorts and deduplicates in place.
func dedupInts(xs []int) []int {
	if len(xs) < 2 {
		return xs
	}
	sort.Ints(xs)
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
