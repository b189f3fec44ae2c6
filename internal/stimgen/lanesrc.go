package stimgen

import "math/rand"

// laneSource produces exactly the stream of rand.New(rand.NewSource(seed))
// for Uint64 and Intn, but a Seed costs O(1) instead of math/rand's 607-word
// refill, and a slot of the source's feedback register is computed only when
// a draw first touches it: a focused-fuzz lane that draws N values pays for
// about 2N slots, at most 607.
//
// Why a slot can be computed on its own: math/rand seeds its register from a
// Park–Miller chain x_n = seed·48271^n mod (2^31−1); slot i is built from
// chain positions 21+3i, 22+3i and 23+3i, XORed with the stdlib's constant
// rngCooked[i]. With 48271^n tabulated, a slot costs three multiplications
// modulo 2^31−1. rngCooked is not exported; init recovers it from the first
// 607 values of rand.NewSource(1) (see recoverCooked).
type laneSource struct {
	seed      uint64 // the normalised chain seed, in [1, 2^31−2]
	tap, feed int
	// gen numbers the Seed calls; vec[i] belongs to the current seed only
	// when stamp[i] == gen.
	gen   uint32
	stamp [rngLen]uint32
	vec   [rngLen]uint64
}

// The constants of math/rand's additive lagged Fibonacci source.
const (
	rngLen  = 607
	rngTap  = 273
	pmMod   = 1<<31 - 1 // the Park–Miller modulus
	pmMul   = 48271     // the Park–Miller multiplier
	rngMask = 1<<63 - 1
)

var (
	// pmPow[n] is 48271^n mod 2^31−1, for every chain position a slot uses.
	pmPow [21 + 3*rngLen]uint64
	// rngCooked is math/rand's rngCooked table, recovered by recoverCooked.
	rngCooked [rngLen]uint64
)

func init() {
	pmPow[0] = 1
	for n := 1; n < len(pmPow); n++ {
		pmPow[n] = pmPow[n-1] * pmMul % pmMod
	}
	recoverCooked()
}

// recoverCooked inverts the first 607 draws of rand.NewSource(1). Draw k
// (1-based) reads the feed slot (334−k) mod 607 and the tap slot 607−k, and
// stores their sum in the feed slot. For k ≤ 273 both slots still hold their
// seeded values; from k = 274 on, the tap slot holds draw k−273 and the feed
// slot its seeded value. So the draws 274…607 give the seeded slots 60…0 and
// 606…334, the draws 1…273 then give 333…61, and XORing the seed-1 chain
// values back out leaves rngCooked. A change to math/rand's stream would
// break this inversion; TestLaneSourceMatchesMathRand would catch it.
func recoverCooked() {
	src := rand.NewSource(1).(rand.Source64)
	var o [rngLen + 1]uint64
	for k := 1; k <= rngLen; k++ {
		o[k] = src.Uint64()
	}
	var vec [rngLen]uint64
	for k := rngTap + 1; k <= rngLen; k++ {
		vec[(rngLen-rngTap-k+rngLen)%rngLen] = o[k] - o[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		vec[rngLen-rngTap-k] = o[k] - vec[rngLen-k]
	}
	for i := range vec {
		rngCooked[i] = vec[i] ^ chainSlot(1, i)
	}
}

// pmAt returns seed·48271^n mod 2^31−1, the chain value at position n.
func pmAt(seed uint64, n int) uint64 {
	x := seed * pmPow[n] // < 2^62
	x = x&pmMod + x>>31
	x = x&pmMod + x>>31
	if x >= pmMod {
		x -= pmMod
	}
	return x
}

// chainSlot is slot i's chain contribution: math/rand's Seed XORs it with
// rngCooked[i].
func chainSlot(seed uint64, i int) uint64 {
	n := 21 + 3*i
	return pmAt(seed, n)<<40 ^ pmAt(seed, n+1)<<20 ^ pmAt(seed, n+2)
}

// newLaneSource returns a source seeded with seed.
func newLaneSource(seed int64) *laneSource {
	s := &laneSource{}
	s.Seed(seed)
	return s
}

// Seed resets the source to rand.NewSource(seed)'s state; no slot is
// computed until a draw reads it.
func (s *laneSource) Seed(seed int64) {
	seed %= pmMod
	if seed < 0 {
		seed += pmMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.tap, s.feed = 0, rngLen-rngTap
	s.gen++
	if s.gen == 0 { // the stamps wrapped: none may match a fresh generation
		s.stamp = [rngLen]uint32{}
		s.gen = 1
	}
}

// slot returns the current value of register slot i, seeding it first when
// this seed has not touched it yet.
func (s *laneSource) slot(i int) uint64 {
	if s.stamp[i] != s.gen {
		s.stamp[i] = s.gen
		s.vec[i] = chainSlot(s.seed, i) ^ rngCooked[i]
	}
	return s.vec[i]
}

// Uint64 returns the next value of the stream, as rand.Rand.Uint64 does.
func (s *laneSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.slot(s.feed) + s.slot(s.tap)
	s.vec[s.feed] = x
	return x
}

// int31 is rand.Rand.Int31: the top 31 bits of a 63-bit draw.
func (s *laneSource) int31() int32 { return int32(s.Uint64() & rngMask >> 32) }

// Intn returns rand.Rand.Intn(n)'s value for a power of two n below 2^31,
// the only kind the fuzz draw asks for, drawing what it draws.
func (s *laneSource) Intn(n int) int {
	if n <= 0 || n > 1<<30 || n&(n-1) != 0 {
		panic("stimgen: laneSource.Intn wants a power of two below 2^31")
	}
	return int(s.int31() & int32(n-1))
}
