package main

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestRunErrors(t *testing.T) {
	ok := runOpts{run: "all", workers: 1}
	cases := []struct {
		name string
		mut  func(*runOpts)
		want string
	}{
		{"zero workers", func(o *runOpts) { o.workers = 0 }, "-j must be >= 1, got 0"},
		{"negative workers", func(o *runOpts) { o.workers = -3 }, "-j must be >= 1, got -3"},
		{"negative timeout", func(o *runOpts) { o.timeout = -time.Second }, "-timeout must be >= 0, got -1s"},
		{"negative check timeout", func(o *runOpts) { o.checkTO = -time.Millisecond }, "-check-timeout must be >= 0, got -1ms"},
		{"unknown experiment", func(o *runOpts) { o.run = "nope" }, `unknown experiment "nope"`},
	}
	for _, tc := range cases {
		o := ok
		tc.mut(&o)
		var out bytes.Buffer
		err := run(context.Background(), o, &out)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%s: wrote output before rejecting: %q", tc.name, out.String())
		}
	}
}

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), runOpts{list: true, workers: 1}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fig12") {
		t.Errorf("-list output missing fig12:\n%s", out.String())
	}
}

// TestRunInterrupted: a cancelled context stops the run before the first
// experiment and reports the interruption, which main maps to exit code 2.
func TestRunInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, runOpts{run: "fig12", workers: 1}, &bytes.Buffer{})
	if !errors.Is(err, errInterrupted) || !strings.Contains(err.Error(), "0/1 experiments completed") {
		t.Fatalf("err = %v, want an interruption after 0/1 experiments", err)
	}
}
