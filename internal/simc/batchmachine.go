package simc

import (
	"fmt"

	"goldmine/internal/rtl"
	"goldmine/internal/sim"
	"goldmine/internal/telemetry"
)

// MaxLanes is the lane capacity of one batch machine (bits per word).
const MaxLanes = 64

// PackedStim is stimulus transposed into lane-parallel form: one row of
// input-bit words per cycle, bit l of each word belonging to lane l.
type PackedStim struct {
	p       *BatchProgram
	lanes   int
	laneLen []int
	cycles  int
	rows    [][]uint64
}

// Lanes returns the packed lane count.
func (ps *PackedStim) Lanes() int { return ps.lanes }

// Cycles returns the packed cycle count (the longest lane; shorter lanes pad
// with all-zero input vectors, and their traces are truncated on unpack).
func (ps *PackedStim) Cycles() int { return ps.cycles }

// Pack transposes up to 64 stimulus sequences into lane-parallel rows,
// validating names with the interpreter's exact error strings.
func (p *BatchProgram) Pack(lanes []sim.Stimulus) (*PackedStim, error) {
	if err := checkLanes(len(lanes)); err != nil {
		return nil, err
	}
	laneLen := make([]int, len(lanes))
	for l, stim := range lanes {
		laneLen[l] = len(stim)
	}
	ps := p.newPacked(laneLen)
	for l, stim := range lanes {
		bit := uint64(1) << uint(l)
		for c, in := range stim {
			row := ps.rows[c]
			for name, v := range in {
				e, ok := p.packIdx[name]
				if !ok {
					return nil, fmt.Errorf("stimulus drives unknown signal %q", name)
				}
				switch e.kind {
				case inClock:
					if p.d.Signal(name).Kind != rtl.SigInput {
						return nil, fmt.Errorf("stimulus drives non-input signal %q", name)
					}
					return nil, fmt.Errorf("stimulus drives clock %q", name)
				case inNonInput:
					return nil, fmt.Errorf("stimulus drives non-input signal %q", name)
				}
				in := p.inputs[e.slot]
				v &= e.mask
				for i := 0; i < in.sig.Width; i++ {
					if v>>uint(i)&1 == 1 {
						row[in.off+i] |= bit
					}
				}
			}
		}
	}
	return ps, nil
}

// Broadcast packs one stimulus into each of lanes lanes: the rows Pack builds
// from lanes copies of stim, at the cost of packing one.
func (p *BatchProgram) Broadcast(stim sim.Stimulus, lanes int) (*PackedStim, error) {
	if err := checkLanes(lanes); err != nil {
		return nil, err
	}
	ps, err := p.Pack([]sim.Stimulus{stim})
	if err != nil {
		return nil, err
	}
	all := ^uint64(0) >> uint(MaxLanes-lanes)
	for _, row := range ps.rows {
		for i, w := range row {
			if w != 0 {
				row[i] = all
			}
		}
	}
	ps.lanes = lanes
	ps.laneLen = make([]int, lanes)
	for l := range ps.laneLen {
		ps.laneLen[l] = len(stim)
	}
	return ps, nil
}

// NewPackedStim returns an all-zero packed stimulus of lanes lanes, each
// cycles cycles long, for SetInput to fill: a generator writes its draws
// straight into the rows and never builds a sim.InputVec.
func (p *BatchProgram) NewPackedStim(lanes, cycles int) (*PackedStim, error) {
	if err := checkLanes(lanes); err != nil {
		return nil, err
	}
	if cycles < 0 {
		return nil, fmt.Errorf("simc: negative cycle count %d", cycles)
	}
	laneLen := make([]int, lanes)
	for l := range laneLen {
		laneLen[l] = cycles
	}
	return p.newPacked(laneLen), nil
}

// checkLanes rejects a lane count that does not fit one word.
func checkLanes(n int) error {
	if n <= 0 {
		return fmt.Errorf("simc: pack of zero lanes")
	}
	if n > MaxLanes {
		return fmt.Errorf("simc: %d lanes exceed the %d-lane word width", n, MaxLanes)
	}
	return nil
}

// newPacked allocates zeroed rows for lanes of the given lengths, carved
// from one arena.
func (p *BatchProgram) newPacked(laneLen []int) *PackedStim {
	ps := &PackedStim{p: p, lanes: len(laneLen), laneLen: laneLen}
	for _, n := range laneLen {
		if n > ps.cycles {
			ps.cycles = n
		}
	}
	nw := len(p.inWords)
	arena := make([]uint64, ps.cycles*nw)
	ps.rows = make([][]uint64, ps.cycles)
	for c := range ps.rows {
		ps.rows[c] = arena[c*nw : (c+1)*nw : (c+1)*nw]
	}
	return ps
}

// SetInput sets data input i (rtl.Design.Inputs order) of lane l at cycle c
// to v, masked to the input's width — the same bits Pack writes for that
// input's entry in lane l's vector of cycle c.
func (ps *PackedStim) SetInput(l, c, i int, v uint64) {
	in := ps.p.inputs[i]
	row := ps.rows[c][in.off : in.off+in.sig.Width]
	bit := uint64(1) << uint(l)
	for b := range row {
		row[b] = row[b]&^bit | (v>>uint(b)&1)<<uint(l)
	}
}

// BatchTrace is the lane-parallel trace: one packed row per cycle holding the
// raw stored bit words of every trace column. Lane extraction transposes one
// lane back into a standard sim.Trace.
type BatchTrace struct {
	p       *BatchProgram
	laneLen []int
	live    []uint64 // per cycle, the lanes whose stimulus reaches it
	rows    [][]uint64
	arena   []uint64 // the rows' storage
}

// Lanes returns the number of recorded lanes.
func (bt *BatchTrace) Lanes() int { return len(bt.laneLen) }

// Cycles returns the packed cycle count (longest lane).
func (bt *BatchTrace) Cycles() int { return len(bt.rows) }

// Live returns the mask of lanes recorded at cycle c: bit l is set when lane
// l's stimulus is longer than c. Rows past a lane's end hold padding, not
// that lane's run.
func (bt *BatchTrace) Live(c int) uint64 {
	if c < 0 || c >= len(bt.live) {
		return 0
	}
	return bt.live[c]
}

// Column returns sig's raw stored bit words at cycle c, least significant
// bit first, bit l of each word belonging to lane l — the column Lane
// transposes. Bits past the returned words read as zero. A signal without a
// trace column (the clock, a signal of another design) has no words. The
// slice aliases the trace.
func (bt *BatchTrace) Column(sig *rtl.Signal, c int) []uint64 {
	j := bt.p.tr.Col(sig)
	if j < 0 {
		return nil
	}
	return bt.rows[c][bt.p.colOff[j]:bt.p.colOff[j+1]]
}

// Point returns coverage point i's value (rtl.CoverageInfo.Points[i]) at
// cycle c, bit l for lane l. The program must have been compiled with
// BatchOptions.Points; without it, or for i out of range, Point panics.
func (bt *BatchTrace) Point(i, c int) uint64 {
	if uint(i) >= uint(bt.p.npoints) {
		panic(fmt.Sprintf("simc: BatchTrace.Point(%d): %d coverage points compiled (CompileBatch with BatchOptions.Points compiles them)", i, bt.p.npoints))
	}
	return bt.rows[c][int(bt.p.pointOff)+i]
}

// LaneValue gathers lane l's value from lane-parallel bit words ws (word i
// holds bit i of every lane), as Column and BatchMachine.Bits return them.
func LaneValue(ws []uint64, l int) uint64 {
	var v uint64
	for i, w := range ws {
		v |= (w >> uint(l) & 1) << uint(i)
	}
	return v
}

// MatchLanes returns the lanes in which a proposition on sig holds, given
// sig's lane-parallel bit words ws: with bit >= 0, the value's bit at that
// position equals v&1; with bit < 0, the whole value equals v. The value is
// read width-masked (bits at or past sig's width, or past ws, read zero),
// and bits of v at or above the width are not compared, so a caller settles
// a wider v by its own rule first.
func MatchLanes(ws []uint64, sig *rtl.Signal, bit int, v uint64) uint64 {
	word := func(i int) uint64 {
		if i < sig.Width && i < len(ws) {
			return ws[i]
		}
		return 0
	}
	if bit >= 0 {
		if v&1 == 1 {
			return word(bit)
		}
		return ^word(bit)
	}
	m := ^uint64(0)
	for i := 0; i < sig.Width && i < 64; i++ {
		if v>>uint(i)&1 == 1 {
			m &= word(i)
		} else {
			m &^= word(i)
		}
	}
	return m
}

// Lane transposes lane l into a standard trace, truncated to that lane's own
// stimulus length. The resulting rows are bit-for-bit the interpreter's.
func (bt *BatchTrace) Lane(l int) (*sim.Trace, error) {
	if l < 0 || l >= len(bt.laneLen) {
		return nil, fmt.Errorf("simc: lane %d out of range (0..%d)", l, len(bt.laneLen)-1)
	}
	p := bt.p
	tr := sim.NewTrace(p.d)
	n := bt.laneLen[l]
	ncols := len(tr.Signals)
	arena := make([]uint64, n*ncols)
	tr.Values = make([][]uint64, n)
	for c := 0; c < n; c++ {
		row := arena[c*ncols : (c+1)*ncols : (c+1)*ncols]
		packed := bt.rows[c]
		for j := range row {
			row[j] = LaneValue(packed[p.colOff[j]:p.colOff[j+1]], l)
		}
		tr.Values[c] = row
	}
	return tr, nil
}

// BatchMachine executes a BatchProgram: 64 lanes per step. Not safe for
// concurrent use; any number of machines can share one program.
type BatchMachine struct {
	p     *BatchProgram
	words []uint64
	// forces remembers SetForce writes (word index -> value) so Reset can
	// restore them after zeroing the state.
	forces map[int32]uint64
	// Cycles, when set, counts cycle*lane steps (nil-safe).
	Cycles *telemetry.Counter
	// trace is RunPacked's result, reused from run to run.
	trace BatchTrace
}

// NewBatchMachine creates an executor for p in the reset state.
func NewBatchMachine(p *BatchProgram) *BatchMachine {
	m := &BatchMachine{p: p, words: make([]uint64, p.nwords)}
	m.words[bw1] = ^uint64(0)
	return m
}

// Program returns the shared compiled program.
func (m *BatchMachine) Program() *BatchProgram { return m.p }

// Reset restores the all-registers-zero initial state in every lane,
// preserving lane forces.
func (m *BatchMachine) Reset() {
	for i := range m.words {
		m.words[i] = 0
	}
	m.words[bw1] = ^uint64(0)
	for w, v := range m.forces {
		m.words[w] = v
	}
}

// SetForce pins a signal to a constant (width-masked) value in one lane,
// with stuck-at semantics identical to sim.Simulator.Force. The signal must
// have been listed in BatchOptions.Forceable at compile time.
func (m *BatchMachine) SetForce(lane int, name string, val uint64) error {
	if lane < 0 || lane >= MaxLanes {
		return fmt.Errorf("simc: force lane %d out of range (0..%d)", lane, MaxLanes-1)
	}
	fs, ok := m.p.forceable[name]
	if !ok {
		return fmt.Errorf("simc: signal %q was not compiled as forceable", name)
	}
	bit := uint64(1) << uint(lane)
	val &= rtl.Mask(fs.sig.Width)
	m.setWord(fs.maskW, m.words[fs.maskW]|bit)
	for i, w := range fs.valW {
		v := m.words[w] &^ bit
		if val>>uint(i)&1 == 1 {
			v |= bit
		}
		m.setWord(w, v)
	}
	return nil
}

// ClearForces releases every lane force.
func (m *BatchMachine) ClearForces() {
	for w := range m.forces {
		m.words[w] = 0
	}
	m.forces = nil
}

func (m *BatchMachine) setWord(w int32, v uint64) {
	if m.forces == nil {
		m.forces = make(map[int32]uint64)
	}
	m.words[w] = v
	m.forces[w] = v
}

// exec runs one word-op tape.
func (m *BatchMachine) exec(tape []binstr) {
	w := m.words
	for i := range tape {
		in := &tape[i]
		switch in.op {
		case bAnd:
			w[in.dst] = w[in.a] & w[in.b]
		case bOr:
			w[in.dst] = w[in.a] | w[in.b]
		case bXor:
			w[in.dst] = w[in.a] ^ w[in.b]
		case bNot:
			w[in.dst] = ^w[in.a]
		case bAndN:
			w[in.dst] = w[in.a] &^ w[in.b]
		case bMux:
			w[in.dst] = (w[in.a] & w[in.c]) | (w[in.b] &^ w[in.c])
		case bCopy:
			w[in.dst] = w[in.a]
		case bForce:
			w[in.dst] = (w[in.dst] &^ w[in.a]) | w[in.b]
		}
	}
}

// LoadState writes one raw register state into the lanes set in the lanes
// mask; other lanes keep theirs. state holds one value per register in
// rtl.Design.Registers order, raw as the interpreter stores it: bits above a
// register's width that its next-state function produced are kept (they live
// in the register's extra words), so a state read back after Latch reloads
// exactly.
func (m *BatchMachine) LoadState(lanes uint64, state []uint64) {
	for i, ws := range m.p.regBits {
		v := state[i]
		for j, w := range ws {
			if v>>uint(j)&1 == 1 {
				m.words[w] |= lanes
			} else {
				m.words[w] &^= lanes
			}
		}
	}
}

// Settle drives one cycle's packed inputs and settles the combinational
// logic in every lane. in holds one word per data-input bit — inputs in
// rtl.Design.Inputs order, each least significant bit first — with bit l of
// a word belonging to lane l.
func (m *BatchMachine) Settle(in []uint64) {
	for i, w := range m.p.inWords {
		m.words[w] = in[i]
	}
	m.exec(m.p.comb)
}

// Latch clocks the settled cycle: every lane's registers take their next
// state.
func (m *BatchMachine) Latch() { m.exec(m.p.next) }

// Bits returns sig's raw stored value in lane-parallel form, reusing dst:
// word i holds bit i of every lane, and bits past the returned words are
// zero. Read after Settle it is the settled cycle's value; a register read
// after Latch holds its new state. The clock and a signal of another design
// have no stored value (no words).
func (m *BatchMachine) Bits(sig *rtl.Signal, dst []uint64) []uint64 {
	dst = dst[:0]
	for _, w := range m.p.bits(sig) {
		dst = append(dst, m.words[w])
	}
	return dst
}

// RunPacked resets the machine and runs the packed stimulus, returning the
// lane-parallel trace. The trace belongs to the machine and stays valid until
// its next run, which overwrites it; a run no longer than an earlier one
// allocates nothing.
func (m *BatchMachine) RunPacked(ps *PackedStim) (*BatchTrace, error) {
	if ps.p != m.p {
		return nil, fmt.Errorf("simc: packed stimulus belongs to a different program")
	}
	m.Reset()
	bt := &m.trace
	rw := len(m.p.rowGather)
	arena := resize(bt.arena, ps.cycles*rw)
	bt.p, bt.laneLen, bt.arena = m.p, ps.laneLen, arena
	bt.live, bt.rows = resize(bt.live, ps.cycles), resize(bt.rows, ps.cycles)
	clear(bt.live)
	// Every non-empty lane is live from cycle 0 until its end: mark each
	// lane's end cycle in place, then sweep the live set across the cycles.
	var live uint64
	for l, n := range ps.laneLen {
		if n > 0 {
			live |= 1 << uint(l)
		}
		if n < ps.cycles {
			bt.live[n] |= 1 << uint(l)
		}
	}
	for c, ended := range bt.live {
		live &^= ended
		bt.live[c] = live
	}
	for c := 0; c < ps.cycles; c++ {
		row := arena[c*rw : (c+1)*rw : (c+1)*rw]
		m.Settle(ps.rows[c])
		for i, w := range m.p.rowGather {
			row[i] = m.words[w]
		}
		m.Latch()
		bt.rows[c] = row
	}
	if m.Cycles != nil {
		m.Cycles.Add(int64(ps.cycles) * int64(ps.lanes))
	}
	return bt, nil
}

// resize returns s with length n, reusing its storage when it is large
// enough; the contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// RunBatch packs up to 64 stimulus lanes, runs them bit-parallel, and
// transposes every lane back into a standard trace.
func (m *BatchMachine) RunBatch(lanes []sim.Stimulus) ([]*sim.Trace, error) {
	ps, err := m.p.Pack(lanes)
	if err != nil {
		return nil, err
	}
	bt, err := m.RunPacked(ps)
	if err != nil {
		return nil, err
	}
	out := make([]*sim.Trace, len(lanes))
	for l := range lanes {
		if out[l], err = bt.Lane(l); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SimulateBatch compiles d and runs the lanes on a fresh batch machine.
func SimulateBatch(d *rtl.Design, lanes []sim.Stimulus) ([]*sim.Trace, error) {
	p, err := CompileBatch(d, BatchOptions{})
	if err != nil {
		return nil, err
	}
	return NewBatchMachine(p).RunBatch(lanes)
}
