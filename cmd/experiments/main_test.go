package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"goldmine/internal/telemetry"
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

// TestRunTelemetryJournal: -telemetry journals the run, ending with the
// final metrics snapshot and the close trailer.
func TestRunTelemetryJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	o := runOpts{run: "example6", workers: 1, telemetry: path}
	if err := run(context.Background(), o, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	kinds := make([]string, len(lines))
	for i, ln := range lines {
		var e telemetry.JSONEvent
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("line %d unparseable: %v", i+1, err)
		}
		kinds[i] = e.Kind + ":" + e.Name
	}
	n := len(kinds)
	if n < 3 || kinds[n-2] != telemetry.KindSnapshot+":metrics" || kinds[n-1] != telemetry.KindClose+":" {
		t.Fatalf("journal of %d lines does not end with the snapshot and the close trailer: %v", n, kinds[max(0, n-2):])
	}
}
