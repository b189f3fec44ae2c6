package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"goldmine/internal/designs"
	"goldmine/internal/sim"
	"goldmine/internal/stimgen"
)

func TestRunRandomQuiet(t *testing.T) {
	if err := run("arbiter2", "", 10, "random", 1, true, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunDirectedWithTrace(t *testing.T) {
	if err := run("arbiter2", "", 0, "directed", 1, false, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunExhaustive(t *testing.T) {
	if err := run("cex_small", "", 0, "exhaustive", 1, true, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunVCDOutput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wave.vcd")
	if err := run("arbiter2", "", 8, "random", 3, true, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "$enddefinitions") {
		t.Error("VCD output malformed")
	}
}

func TestRunFileInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.v")
	os.WriteFile(path, []byte("module m(input a, output y); assign y = ~a; endmodule"), 0o644)
	if err := run("", path, 4, "random", 1, true, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("", "", 10, "random", 1, true, ""); err == nil {
		t.Error("missing design should error")
	}
	if err := run("fetch", "", 10, "directed2", 1, true, ""); err == nil {
		t.Error("bad stim spec should error")
	}
	if err := run("wb_stage", "", 10, "exhaustive", 1, true, ""); err == nil {
		t.Error("wide exhaustive should error (24 input bits)")
	}
	if err := run("b01", "", 10, "directed", 1, true, ""); err == nil {
		t.Error("design without directed test should error")
	}
	err := run("arbiter2", "", -1, "random", 1, true, "")
	if want := "-cycles must be >= 0, got -1"; err == nil || err.Error() != want {
		t.Errorf("negative cycles: got error %v, want %q", err, want)
	}
}

// TestRunVCDIdenticalAcrossEngines: the VCD rtlsim writes from the batch
// engine is byte-identical to one written from the sim.Simulator interpreter
// on the same stimulus.
func TestRunVCDIdenticalAcrossEngines(t *testing.T) {
	b, err := designs.Get("b06")
	if err != nil {
		t.Fatal(err)
	}
	d, err := b.Design()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Run(stimgen.Random(d, 50, 7, 2))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sim.WriteVCD(&want, d, tr, d.Name); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "compiled.vcd")
	if err := run("b06", "", 50, "random", 7, true, path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("rtlsim VCD differs from the interpreter's")
	}
}
