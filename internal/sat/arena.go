package sat

import "math"

// cref addresses a clause in the clause arena: the index of its header word.
type cref uint32

const (
	// crefUndef is the reason of a decision, an assumption, a level-0 unit
	// and an unassigned variable.
	crefUndef cref = ^cref(0)
	// binaryWatch flags the watcher of a two-literal clause in the top bit of
	// its cref. The blocker of such a watcher is always the clause's other
	// literal, so propagation never reads the clause to imply it.
	binaryWatch cref = 1 << 31
	// maxArena bounds the arena so that no cref reaches the binaryWatch bit.
	maxArena = int(binaryWatch) - 1
)

// A clause occupies clauseHdr header words followed by its literals: the
// header proper (size<<hdrShift | flags), then the float64 activity split
// into its low and high 32 bits. Every clause carries the activity words, so
// a clause's literals always start clauseHdr words after its cref.
const (
	clauseHdr = 3

	hdrLearnt  = 1 << 0
	hdrDeleted = 1 << 1
	hdrShift   = 2
)

// arena is the solver's clause store: every clause, problem or learnt, lives
// in one pointer-free slice of words, so a clause visit is one memory access
// and the garbage collector never scans the clause database. Deleting a
// clause only sets its deleted bit and counts its words as wasted; the
// solver compacts the arena (Solver.compact) once half of it is garbage.
type arena struct {
	mem    []ilit
	wasted int // words of deleted clauses still in mem
}

// alloc appends a clause with activity 0 and returns its cref.
func (a *arena) alloc(lits []ilit, learnt bool) cref {
	c := len(a.mem)
	if c+clauseHdr+len(lits) > maxArena {
		panic("sat: clause arena overflow")
	}
	h := ilit(len(lits)) << hdrShift
	if learnt {
		h |= hdrLearnt
	}
	a.mem = append(a.mem, h, 0, 0)
	a.mem = append(a.mem, lits...)
	return cref(c)
}

func (a *arena) size(c cref) int     { return int(a.mem[c] >> hdrShift) }
func (a *arena) learnt(c cref) bool  { return a.mem[c]&hdrLearnt != 0 }
func (a *arena) deleted(c cref) bool { return a.mem[c]&hdrDeleted != 0 }

// lits returns the clause's literals, aliasing the arena: writes reorder the
// clause in place.
func (a *arena) lits(c cref) []ilit {
	start := int(c) + clauseHdr
	end := start + a.size(c)
	return a.mem[start:end:end]
}

func (a *arena) activity(c cref) float64 {
	return math.Float64frombits(uint64(a.mem[c+1]) | uint64(a.mem[c+2])<<32)
}

func (a *arena) setActivity(c cref, act float64) {
	b := math.Float64bits(act)
	a.mem[c+1], a.mem[c+2] = ilit(b), ilit(b>>32)
}

// free marks a clause deleted. Its words stay in place until compaction.
func (a *arena) free(c cref) {
	a.mem[c] |= hdrDeleted
	a.wasted += clauseHdr + a.size(c)
}

// move copies live clause c into to and returns its cref there. The old
// copy's first activity word is overwritten with that cref, for forward.
func (a *arena) move(c cref, to *arena) cref {
	end := int(c) + clauseHdr + a.size(c)
	nc := cref(len(to.mem))
	to.mem = append(to.mem, a.mem[c:end]...)
	a.mem[c+1] = ilit(nc)
	return nc
}

// forward returns the new cref of a clause that move has copied.
func (a *arena) forward(c cref) cref { return cref(a.mem[c+1]) }
