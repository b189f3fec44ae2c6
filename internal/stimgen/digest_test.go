package stimgen

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"hash"
	"sort"
	"testing"

	"goldmine/internal/coverage"
	"goldmine/internal/designs"
	"goldmine/internal/rtl"
	"goldmine/internal/sim"
)

var closureDigestSeeds = flag.Int("closure-digest-seeds", 2,
	"closure seeds TestClosureDigest checks (1..8); 8 checks every pinned seed")

// closureDigestDesigns are the designs of perfbench's close workload.
var closureDigestDesigns = []string{"arbiter2", "b06", "b09", "b10", "b12", "b17", "b18", "cex_small", "decode", "pipeline"}

// closureDigests pins, per closure seed (1..8), the SHA-256 of every
// closure outcome on closureDigestDesigns at a 512-cycle budget with random
// fill and two workers: each HoleAttempt (key, method, depth, K, proven
// depth, via, error, stimulus), the suite, the final report, the cycles
// used, the compaction moves, the method counts and the reach counters. A
// change to the fuzz draw, the simulator or hole detection that moves any
// closure decision moves the digest.
var closureDigests = []string{
	"f19ca771759d091427c90ac2017c603239d03221c52914be32dceb55eaf7c1d3",
	"147804ffc8d5d4e37e138ebc736ae306ab947aa697a1a50c9731e89e3a8717b6",
	"d1cc23e313d6b2ee47652e960dfef3f8b04de66a3123369bb6f52adb4f83d764",
	"c2456fe16c82733352836af130cc44949223513e70cd8f6e7d62e9a5d57c3560",
	"54af8f30d28a3f4f9c97970130d062adc80e9d3a28553d26e2261382080cc156",
	"257cb89135fb38dd48515fafc9c6ab881505cf24e6f1df36faf8bb43156faa53",
	"92452d5dcde34df01bec40e7663240559ccb9dcb82a8c23a086f2e9a1eb3f481",
	"d7332f8e054194980818858335356f469c0abdb2ad75c5cf4157b43d57527957",
}

// writeStim hashes a stimulus cycle by cycle, every input of d in
// rtl.Design.Inputs order with a presence byte.
func writeStim(h hash.Hash, d *rtl.Design, s sim.Stimulus) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	if s == nil {
		put(^uint64(0))
		return
	}
	put(uint64(len(s)))
	for _, iv := range s {
		put(uint64(len(iv)))
		for _, in := range d.Inputs() {
			if v, ok := iv[in.Name]; ok {
				h.Write([]byte{1})
				put(v)
			} else {
				h.Write([]byte{0})
			}
		}
	}
}

// closureDigest runs CloseCoverage on every digest design at seed and
// hashes the outcomes.
func closureDigest(t *testing.T, seed int64) string {
	t.Helper()
	h := sha256.New()
	var b [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		h.Write(b[:])
	}
	str := func(s string) {
		put(len(s))
		h.Write([]byte(s))
	}
	metric := func(m coverage.Metric) { put(m.Covered); put(m.Total) }
	for _, name := range closureDigestDesigns {
		bm, err := designs.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := bm.Design()
		if err != nil {
			t.Fatal(err)
		}
		res, err := CloseCoverage(context.Background(), d, ClosureOptions{
			DirectedOptions: DirectedOptions{Seed: seed, Workers: 2},
			TotalCycles:     512,
			FillRandom:      true,
		})
		if err != nil {
			t.Fatalf("%s seed %d: %v", name, seed, err)
		}
		str(name)
		put(len(res.Attempts))
		for _, at := range res.Attempts {
			str(at.Hole.Key())
			str(at.Method)
			put(at.Depth)
			put(at.K)
			put(at.ProvenDepth)
			str(at.Via)
			errText := ""
			if at.Err != nil {
				errText = at.Err.Error()
			}
			str(errText)
			writeStim(h, d, at.Stim)
		}
		put(len(res.Suite))
		for _, s := range res.Suite {
			writeStim(h, d, s)
		}
		f := res.Final
		for _, m := range []coverage.Metric{f.Line, f.Branch, f.Cond, f.Expr, f.Toggle, f.FSM} {
			metric(m)
		}
		put(f.Cycles)
		put(res.CyclesUsed)
		put(res.Evicted)
		put(res.Readmitted)
		methods := make([]string, 0, len(res.Methods))
		for m := range res.Methods {
			methods = append(methods, m)
		}
		sort.Strings(methods)
		for _, m := range methods {
			str(m)
			put(res.Methods[m])
		}
		put(res.ReachCalls)
		put(res.ReachSolves)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestClosureDigest pins closure bit for bit on the close workload's
// designs: seeds 1 and 2 by default, all eight pinned seeds with
//
//	go test -run TestClosureDigest ./internal/stimgen -args -closure-digest-seeds 8
//
// The flag goes after the package: placed before it, go test hands the
// package path to the test binary as an argument and tests the current
// directory's package instead.
func TestClosureDigest(t *testing.T) {
	n := *closureDigestSeeds
	if n < 1 || n > len(closureDigests) {
		t.Fatalf("-closure-digest-seeds %d: want 1..%d", n, len(closureDigests))
	}
	for i := 0; i < n; i++ {
		seed := int64(i + 1)
		if got := closureDigest(t, seed); got != closureDigests[i] {
			t.Errorf("seed %d: closure digest %s, pinned %s", seed, got, closureDigests[i])
		}
	}
}
