package stimgen

import (
	"math"
	"math/rand"
	"testing"
)

// TestLaneSourceMatchesMathRand requires laneSource to equal
// rand.New(rand.NewSource(seed)) draw for draw, with Uint64 and Intn
// interleaved past the 607-word register (so slots are re-read after their
// first write), on edge seeds (0 and the seeds math/rand maps onto it, the
// modulus, both signs, the int64 extremes) and a sweep. One source is
// reseeded between seeds, so a slot left from an earlier seed must never be
// read. Besides the lazy seeding, this pins the recovered rngCooked table:
// a change to math/rand's stream fails here.
func TestLaneSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 89482311, 1<<31 - 1, 1 << 31, -(1 << 40),
		math.MaxInt64, math.MinInt64, 2 * (1<<31 - 1), -(1<<31 - 1),
	}
	sweep := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		seeds = append(seeds, sweep.Int63()-sweep.Int63(), int64(i))
	}
	src := newLaneSource(5)
	for si, seed := range seeds {
		src.Seed(seed)
		ref := rand.New(rand.NewSource(seed))
		pick := rand.New(rand.NewSource(int64(si)))
		draws := 700 + pick.Intn(700)
		for k := 0; k < draws; k++ {
			switch op := pick.Intn(4); op {
			case 0:
				n := []int{16, 2, 1, 1 << 30}[pick.Intn(4)]
				if got, want := src.Intn(n), ref.Intn(n); got != want {
					t.Fatalf("seed %d draw %d: Intn(%d) = %d, math/rand %d", seed, k, n, got, want)
				}
			default:
				if got, want := src.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("seed %d draw %d: Uint64 = %#x, math/rand %#x", seed, k, got, want)
				}
			}
		}
	}
}

// TestLaneSourceStampWrap runs the generation counter through zero with
// every slot stamped for the generation after the wrap and holding garbage:
// Seed must clear the stamps, or the garbage would pass for seeded slots.
func TestLaneSourceStampWrap(t *testing.T) {
	src := newLaneSource(7)
	src.gen = math.MaxUint32
	for i := range src.stamp {
		src.stamp[i], src.vec[i] = 1, ^uint64(i)
	}
	src.Seed(12)
	ref := rand.New(rand.NewSource(12))
	for k := 0; k < 2*rngLen; k++ {
		if got, want := src.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("draw %d after the wrap: %#x, math/rand %#x", k, got, want)
		}
	}
}

func BenchmarkLaneSeed(b *testing.B) {
	b.Run("math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(0))
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			for k := 0; k < 96; k++ {
				r.Uint64()
			}
		}
	})
	b.Run("lane-source", func(b *testing.B) {
		s := newLaneSource(0)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
			for k := 0; k < 96; k++ {
				s.Uint64()
			}
		}
	})
}
