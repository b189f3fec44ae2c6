package simc_test

import (
	"testing"

	"goldmine/internal/designs"
	"goldmine/internal/sim"
	"goldmine/internal/simc"
	"goldmine/internal/stimgen"
)

const benchCycles = 1000

// BenchmarkSimulate is the interpreter baseline: ns/op divided by benchCycles
// is the per-cycle cost the batch engine is measured against.
func BenchmarkSimulate(b *testing.B) {
	for _, bench := range designs.All() {
		b.Run(bench.Name, func(b *testing.B) {
			d, err := bench.Design()
			if err != nil {
				b.Fatal(err)
			}
			stim := stimgen.Random(d, benchCycles, 42, 2)
			s, err := sim.New(d)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(stim); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchCycles, "ns/cycle")
		})
	}
}

// BenchmarkSimulateBatched64 packs 64 independent lanes and reports the cost
// per (cycle × lane) — the bit-parallel engine's headline number.
func BenchmarkSimulateBatched64(b *testing.B) {
	for _, bench := range designs.All() {
		b.Run(bench.Name, func(b *testing.B) {
			d, err := bench.Design()
			if err != nil {
				b.Fatal(err)
			}
			lanes := stimgen.RandomLanes(d, simc.MaxLanes, benchCycles, 42, 2)
			p, err := simc.CompileBatch(d, simc.BatchOptions{})
			if err != nil {
				b.Fatal(err)
			}
			packed, err := p.Pack(lanes)
			if err != nil {
				b.Fatal(err)
			}
			m := simc.NewBatchMachine(p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.RunPacked(packed); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(benchCycles*simc.MaxLanes), "ns/lane-cycle")
		})
	}
}
