package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"goldmine/internal/sim"
	"goldmine/internal/telemetry"
)

func TestRunDesign(t *testing.T) {
	o := runOpts{
		design: "arbiter2", output: "gnt0", bit: 0, window: -1,
		seed: "directed", format: "ltl", maxIter: 32, workers: 2,
		batched: true, printTree: true, minimize: true,
	}
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := runOpts{
		design: "arbiter2", bit: -1, window: -1,
		seed: "directed", format: "ltl", maxIter: 8, workers: 2,
	}
	err := run(ctx, o)
	if !errors.Is(err, errInterrupted) {
		t.Fatalf("err = %v, want errInterrupted", err)
	}
}

func TestRunAllOutputsSVA(t *testing.T) {
	o := runOpts{
		design: "cex_small", bit: -1, window: -1,
		seed: "none", format: "sva", maxIter: 16, workers: 2,
		reduce: true,
	}
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
}

func TestRunFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "inv.v")
	src := `module inv(input a, output y); assign y = ~a; endmodule`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	o := runOpts{
		file: path, output: "y", bit: 0, window: 0,
		seed: "random:8", format: "psl", maxIter: 8, workers: 2,
		fullCtx: true, reduce: true, minimize: true,
	}
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	base := runOpts{
		bit: -1, window: -1, seed: "directed", format: "ltl",
		maxIter: 8, workers: 2,
	}
	if err := run(context.Background(), base); err == nil {
		t.Error("missing design should error")
	}
	o := base
	o.design = "nope"
	if err := run(context.Background(), o); err == nil {
		t.Error("unknown design should error")
	}
	o = base
	o.design, o.output, o.bit = "arbiter2", "ghost", 0
	if err := run(context.Background(), o); err == nil {
		t.Error("unknown output should error")
	}
	o = base
	o.design, o.output, o.bit, o.seed = "arbiter2", "gnt0", 0, "random:x"
	if err := run(context.Background(), o); err == nil {
		t.Error("bad seed spec should error")
	}
	// A negative cycle count is refused up front, not left to panic in the
	// random stimulus generator.
	o.seed = "random:-5"
	if err := run(context.Background(), o); err == nil || !strings.Contains(err.Error(), "-seed") {
		t.Errorf("negative random seed: err = %v, want a -seed error", err)
	}
}

func TestStimString(t *testing.T) {
	s := stimString(sim.Stimulus{{"a": 1, "b": 0}, {}})
	if s == "" {
		t.Error("empty stim string")
	}
}

// TestValidateFlags covers the contradictory-flag rejection added with the
// Options builder: each bad combination must be refused up front with a
// message naming the offending flag, before any design is loaded.
func TestValidateFlags(t *testing.T) {
	ok := runOpts{
		design: "arbiter2", bit: -1, window: -1,
		seed: "directed", format: "ltl", maxIter: 8, workers: 1,
	}
	if err := ok.validate(); err != nil {
		t.Fatalf("valid opts rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*runOpts)
		want string
	}{
		{"design and file", func(o *runOpts) { o.file = "x.v" }, "mutually exclusive"},
		{"neither design nor file", func(o *runOpts) { o.design = "" }, "-design or -file"},
		{"bit without output", func(o *runOpts) { o.bit = 2 }, "-bit"},
		{"negative window", func(o *runOpts) { o.window = -2 }, "-window"},
		{"zero max-iter", func(o *runOpts) { o.maxIter = 0 }, "-max-iter"},
		{"zero workers", func(o *runOpts) { o.workers = 0 }, "-j"},
		{"negative check timeout", func(o *runOpts) { o.checkTO = -time.Second }, "-check-timeout"},
		{"check timeout above timeout", func(o *runOpts) {
			o.timeout = time.Second
			o.checkTO = 2 * time.Second
		}, "exceeds -timeout"},
		{"unknown format", func(o *runOpts) { o.format = "uvm" }, "-format"},
		{"telemetry clobbers source", func(o *runOpts) {
			o.design, o.file = "", "d.v"
			o.telemetry = "d.v"
		}, "-telemetry"},
	}
	for _, tc := range cases {
		o := ok
		tc.mut(&o)
		err := o.validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestRunTelemetryJournal runs a full mine with -telemetry and checks the
// journal is complete: parseable JSONL, a close trailer, and at least one
// span from each refinement-loop layer the design exercises.
func TestRunTelemetryJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	o := runOpts{
		design: "arbiter2", bit: -1, window: -1,
		seed: "directed", format: "ltl", maxIter: 8, workers: 1,
		telemetry: path,
	}
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("journal has only %d lines", len(lines))
	}
	seen := map[string]bool{}
	var last telemetry.JSONEvent
	for i, ln := range lines {
		var e telemetry.JSONEvent
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("line %d unparseable: %v", i+1, err)
		}
		seen[e.Kind+":"+e.Name] = true
		last = e
	}
	if last.Kind != telemetry.KindClose {
		t.Fatalf("journal does not end with the close trailer (got %q)", last.Kind)
	}
	for _, want := range []string{
		"span:mine.run", "span:mine.output", "span:mine.iteration",
		"span:mc.check", "span:sched.cache_probe", "span:sim.run",
		"snapshot:metrics",
	} {
		if !seen[want] {
			t.Errorf("journal lacks %s", want)
		}
	}
}

// TestRunReduceRejectsCorpusOffsetAboveBound: a -corpus journal holding an
// assertion whose consequent offset is past assertion.MaxOffset, followed
// by intact lines, makes -reduce fail with an error instead of sizing the
// reduction's monitors by the offset.
func TestRunReduceRejectsCorpusOffsetAboveBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.jsonl")
	o := runOpts{
		design: "arbiter2", bit: -1, window: -1,
		seed: "directed", format: "ltl", maxIter: 8, workers: 1,
		reduce: true, corpus: path,
	}
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	var bad []byte
	for _, ln := range lines {
		if !strings.Contains(ln, `"corpus.entry"`) {
			continue
		}
		dec := json.NewDecoder(strings.NewReader(ln))
		dec.UseNumber()
		var ev map[string]any
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		ev["data"].(map[string]any)["cons"].(map[string]any)["o"] = json.Number("4611686018427387904")
		if bad, err = json.Marshal(ev); err != nil {
			t.Fatal(err)
		}
		break
	}
	if bad == nil {
		t.Fatal("first run saved no corpus entry")
	}
	// Mid-file: after the header, before every intact entry.
	corrupt := lines[0] + string(bad) + "\n" + strings.Join(lines[1:], "")
	if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), o); err == nil {
		t.Error("-reduce accepted a corpus offset past the bound")
	}
}

// TestRequestCarriesFlags: the flags reach the resolved configuration and
// targets unchanged, a sub-millisecond -check-timeout included.
func TestRequestCarriesFlags(t *testing.T) {
	o := runOpts{
		design: "fetch", output: "fetch_pc", bit: 2, window: 3,
		seed: "random:8", format: "ltl", maxIter: 5, workers: 3,
		batched: true, fullCtx: true, checkTO: 50 * time.Microsecond,
	}
	req, err := o.request()
	if err != nil {
		t.Fatal(err)
	}
	r, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	c := r.Config
	if c.MC.CheckTimeout != o.checkTO || c.Window != 3 || c.MaxIterations != 5 ||
		c.Workers != 3 || !c.BatchedChecks || !c.AddFullCtxTrace {
		t.Errorf("config %+v does not carry the flags", c)
	}
	if len(r.Targets) != 1 || r.Targets[0].Output.Name != "fetch_pc" || r.Targets[0].Bit != 2 {
		t.Errorf("targets %+v, want fetch_pc[2] alone", r.Targets)
	}
	if len(r.Seed) != 8 {
		t.Errorf("seed has %d cycles, want 8", len(r.Seed))
	}
}
