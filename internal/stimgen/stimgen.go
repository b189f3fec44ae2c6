// Package stimgen provides the stimulus sources of the paper's experiments:
// seeded pseudo-random input streams (the "random simulation phase"),
// exhaustive enumeration for small combinational blocks, and helpers for
// composing directed tests.
package stimgen

import (
	"math/rand"

	"goldmine/internal/rtl"
	"goldmine/internal/sim"
)

// Random generates a reproducible random stimulus of the given cycle count.
// resetCycles initial cycles assert every input named "rst" or "reset" (other
// inputs still toggle randomly).
func Random(d *rtl.Design, cycles int, seed int64, resetCycles int) sim.Stimulus {
	rng := rand.New(rand.NewSource(seed))
	ins := d.Inputs()
	stim := make(sim.Stimulus, 0, cycles)
	for c := 0; c < cycles; c++ {
		iv := sim.InputVec{}
		for _, in := range ins {
			iv[in.Name] = rng.Uint64() & rtl.Mask(in.Width)
		}
		if c < resetCycles {
			if _, ok := iv["rst"]; ok {
				iv["rst"] = 1
			}
			if _, ok := iv["reset"]; ok {
				iv["reset"] = 1
			}
		} else {
			// Keep reset rare after the prefix so the design does useful work.
			if _, ok := iv["rst"]; ok && rng.Intn(16) != 0 {
				iv["rst"] = 0
			}
			if _, ok := iv["reset"]; ok && rng.Intn(16) != 0 {
				iv["reset"] = 0
			}
		}
		stim = append(stim, iv)
	}
	return stim
}

// RandomLanes generates lanes independent random stimuli for one batched
// simulation: lane l uses seed+l, so the set is reproducible and each lane
// equals Random(d, cycles, seed+l, resetCycles) exactly — mixing batched and
// scalar runs of the same seed therefore exercises identical vectors.
func RandomLanes(d *rtl.Design, lanes, cycles int, seed int64, resetCycles int) []sim.Stimulus {
	out := make([]sim.Stimulus, lanes)
	for l := range out {
		out[l] = Random(d, cycles, seed+int64(l), resetCycles)
	}
	return out
}

// Exhaustive enumerates every input combination once, in counting order. It
// returns nil if the total input width exceeds maxBits (default guard 20).
func Exhaustive(d *rtl.Design, maxBits int) sim.Stimulus {
	if maxBits <= 0 {
		maxBits = 20
	}
	ins := d.Inputs()
	bits := 0
	for _, in := range ins {
		bits += in.Width
	}
	if bits > maxBits {
		return nil
	}
	total := uint64(1) << uint(bits)
	stim := make(sim.Stimulus, 0, total)
	for n := uint64(0); n < total; n++ {
		iv := sim.InputVec{}
		rem := n
		for _, in := range ins {
			iv[in.Name] = rem & rtl.Mask(in.Width)
			rem >>= uint(in.Width)
		}
		stim = append(stim, iv)
	}
	return stim
}

// Repeat tiles a stimulus n times.
func Repeat(stim sim.Stimulus, n int) sim.Stimulus {
	out := make(sim.Stimulus, 0, len(stim)*n)
	for i := 0; i < n; i++ {
		out = append(out, stim.Clone()...)
	}
	return out
}
