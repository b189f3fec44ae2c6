package mc

import "testing"

// TestPredictHardColdStartAndLearning: unseen cone shapes are optimistically
// hard (they are dispatched first until measured); three cheap observations
// retire the bucket to easy; expensive observations make it hard again.
func TestPredictHardColdStartAndLearning(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := NewWithOptions(d, satOnlyOptions())
	a := arbiterSuite()[0]

	if _, hard := c.PredictHard(a); !hard {
		t.Fatal("cold-start prediction should be hard")
	}
	for i := 0; i < difficultyMinSamples; i++ {
		c.noteCheckCost(a, 10)
	}
	if score, hard := c.PredictHard(a); hard {
		t.Fatalf("three cheap samples should retire the bucket (score %d)", score)
	}
	for i := 0; i < 10; i++ {
		c.noteCheckCost(a, 10*hardWorkThreshold)
	}
	if _, hard := c.PredictHard(a); !hard {
		t.Fatal("expensive history should predict hard again")
	}
}
