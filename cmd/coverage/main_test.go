package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"goldmine/internal/holes"
)

func TestRunRandomOnly(t *testing.T) {
	var out bytes.Buffer
	if err := run(cliOpts{design: "arbiter2", cycles: 100, seed: 1, uncovered: true, workers: 1}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "arbiter2:") {
		t.Errorf("missing report line: %q", out.String())
	}
}

func TestRunWithGoldmine(t *testing.T) {
	if err := run(cliOpts{design: "arbiter2", cycles: 50, seed: 1, goldmine: true, workers: 1}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunDirected(t *testing.T) {
	var out bytes.Buffer
	if err := run(cliOpts{design: "b01", cycles: 200, seed: 1, directed: true, workers: 2}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"initial", "final", "methods: sat="} {
		if !strings.Contains(s, want) {
			t.Errorf("directed output missing %q:\n%s", want, s)
		}
	}
}

func TestRunHolesJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run(cliOpts{design: "b01", cycles: 20, seed: 1, holesJSON: true, workers: 1}, &out); err != nil {
		t.Fatal(err)
	}
	// The report line precedes the JSON array: split it off and decode.
	s := out.String()
	i := strings.Index(s, "[")
	if i < 0 {
		t.Fatalf("no JSON array in output:\n%s", s)
	}
	var views []holes.JSON
	if err := json.Unmarshal([]byte(s[i:]), &views); err != nil {
		t.Fatalf("holes JSON does not parse: %v\n%s", err, s[i:])
	}
	if len(views) == 0 {
		t.Error("20 random cycles closed every hole of b01?")
	}
	for _, v := range views {
		if v.Key == "" || v.Kind == "" {
			t.Errorf("hole view missing key/kind: %+v", v)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(cliOpts{cycles: 10, seed: 1, workers: 1}, &bytes.Buffer{}); err == nil {
		t.Error("missing design should error")
	}
	if err := run(cliOpts{design: "nope", cycles: 10, seed: 1, workers: 1}, &bytes.Buffer{}); err == nil {
		t.Error("unknown design should error")
	}
	for _, tc := range []struct {
		o    cliOpts
		want string
	}{
		{cliOpts{design: "arbiter2", cycles: -5, seed: 1, workers: 1}, "-cycles must be >= 0, got -5"},
		{cliOpts{design: "arbiter2", cycles: 10, seed: 1, workers: 0}, "-j must be >= 1, got 0"},
		{cliOpts{design: "b01", cycles: 10, seed: 1, directed: true, workers: -2}, "-j must be >= 1, got -2"},
		{cliOpts{design: "b01", cycles: 10, seed: 1, goldmine: true, directed: true, workers: 1},
			"-goldmine and -directed are mutually exclusive: closure builds its own suite"},
		{cliOpts{design: "b01", cycles: 10, seed: 1, deadFile: "dead.jsonl", workers: 1},
			"-dead-corpus needs -directed or -holes-json: only closure and the hole listing read the journal"},
		{cliOpts{design: "b01", cycles: 10, seed: 1, goldmine: true, deadFile: "dead.jsonl", workers: 1},
			"-dead-corpus needs -directed or -holes-json: only closure and the hole listing read the journal"},
	} {
		err := run(tc.o, &bytes.Buffer{})
		if err == nil || err.Error() != tc.want {
			t.Errorf("%+v: got error %v, want %q", tc.o, err, tc.want)
		}
	}
}
