package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRandomQuiet(t *testing.T) {
	if err := run("arbiter2", "", 10, "random", 1, true, "", true); err != nil {
		t.Fatal(err)
	}
}

func TestRunDirectedWithTrace(t *testing.T) {
	if err := run("arbiter2", "", 0, "directed", 1, false, "", true); err != nil {
		t.Fatal(err)
	}
}

func TestRunExhaustive(t *testing.T) {
	if err := run("cex_small", "", 0, "exhaustive", 1, true, "", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunVCDOutput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wave.vcd")
	if err := run("arbiter2", "", 8, "random", 3, true, path, true); err != nil {
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
	if err := run("", path, 4, "random", 1, true, "", true); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("", "", 10, "random", 1, true, "", true); err == nil {
		t.Error("missing design should error")
	}
	if err := run("fetch", "", 10, "directed2", 1, true, "", true); err == nil {
		t.Error("bad stim spec should error")
	}
	if err := run("wb_stage", "", 10, "exhaustive", 1, true, "", true); err == nil {
		t.Error("wide exhaustive should error (24 input bits)")
	}
	if err := run("b01", "", 10, "directed", 1, true, "", false); err == nil {
		t.Error("design without directed test should error")
	}
	for _, compiled := range []bool{true, false} {
		err := run("arbiter2", "", -1, "random", 1, true, "", compiled)
		if want := "-cycles must be >= 0, got -1"; err == nil || err.Error() != want {
			t.Errorf("compiled=%v: negative cycles: got error %v, want %q", compiled, err, want)
		}
	}
}

// TestRunVCDIdenticalAcrossEngines pins the rtlsim -compiled contract: the
// VCD dump from the compiled engine is byte-identical to the interpreter's.
func TestRunVCDIdenticalAcrossEngines(t *testing.T) {
	dir := t.TempDir()
	pi := filepath.Join(dir, "interp.vcd")
	pc := filepath.Join(dir, "compiled.vcd")
	if err := run("b06", "", 50, "random", 7, true, pi, false); err != nil {
		t.Fatal(err)
	}
	if err := run("b06", "", 50, "random", 7, true, pc, true); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(pi)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(pc)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("compiled VCD differs from interpreter VCD")
	}
}
