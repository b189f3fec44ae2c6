package stimgen

import (
	"fmt"
	"strconv"
	"strings"

	"goldmine/internal/rtl"
	"goldmine/internal/sim"
)

// parseSeed checks a seed stimulus spec — directed | random:<cycles> | none,
// with "" meaning directed — and returns the cycle count of a random spec
// (-1 for the other two).
func parseSeed(spec string) (int, error) {
	switch {
	case spec == "" || spec == "directed" || spec == "none":
		return -1, nil
	case strings.HasPrefix(spec, "random:"):
		n, err := strconv.Atoi(strings.TrimPrefix(spec, "random:"))
		if err != nil || n < 0 {
			return 0, fmt.Errorf("bad seed %q: random:<cycles> needs an integer >= 0", spec)
		}
		return n, nil
	default:
		return 0, fmt.Errorf("bad seed %q (directed | random:<cycles> | none)", spec)
	}
}

// CheckSeed reports whether spec is a well-formed seed stimulus spec,
// without building the stimulus.
func CheckSeed(spec string) error {
	_, err := parseSeed(spec)
	return err
}

// SeedStimulus resolves a seed stimulus spec for d: the design's directed
// test (none when directed is nil), Random(d, cycles, 1, 2), or no stimulus.
// It is the one reading of the goldmine CLI's -seed flag and the mining
// daemon's job spec seed field.
func SeedStimulus(d *rtl.Design, directed func() sim.Stimulus, spec string) (sim.Stimulus, error) {
	n, err := parseSeed(spec)
	switch {
	case err != nil || spec == "none":
		return nil, err
	case n >= 0:
		return Random(d, n, 1, 2), nil
	case directed != nil:
		return directed(), nil
	default:
		return nil, nil
	}
}
