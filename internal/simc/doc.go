// Package simc is the compiled simulation engine: the perf-critical twin of
// the reference interpreter in internal/sim. CompileBatch bit-blasts an
// rtl.Design once into a BatchProgram: every signal bit becomes one uint64
// word, expressions become a hash-consed tape of AND/OR/XOR/ANDN/NOT/MUX
// word operations, and the next-state functions a second tape latched by
// copy. rtl.Lower, shared with the CNF encoder, decides how each operator
// becomes gates; this package supplies only the word gates and their
// folding.
// Bit l of every word belongs to lane l, so a BatchMachine steps 64
// independent simulations — 64 stimulus sequences, or 64 stuck-at fault
// variants — per instruction, with zero per-cycle allocation.
//
// A transposition layer unpacks lanes back into standard sim.Trace rows,
// bit-for-bit the interpreter's (raw, unmasked driver values included), so
// the miner, coverage engine and VCD dumper see identical traces. A single
// stimulus runs as lane 0. LoadState, Settle, Latch and Bits expose one
// cycle at a time for the explicit-state model checker.
//
// The interpreter remains the oracle: the differential tests and the fuzz
// target in this package drive both engines (and forced-lane fault variants)
// over every bundled design and require row-for-row equality.
// FuzzEvalEncodeBatch in internal/cnf checks a batch lane against rtl.Eval
// and the CNF encoding on random expressions, which guards each backend's
// gate folding.
package simc
