package jsonl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Records in the three wire formats the log carries: job WAL submit/done
// events, a corpus.entry event and a dead-hole record.
const (
	walSubmit   = `{"ts_us":1,"kind":"job","name":"submit","attrs":{"id":"j000000"},"data":{"tenant":"t","design":"arbiter2"}}`
	corpusEntry = `{"ts_us":2,"kind":"event","name":"corpus.entry","data":{"ns":"9f1c","design":"arbiter2","output":"gnt0","status":"proved","seen":1,"window":1,"confidence":1,"support":8,"ant":[{"s":"rst","b":0,"o":1,"v":1,"w":1}],"cons":{"s":"gnt0","b":0,"o":0,"v":0,"w":1}}}`
	walDone     = `{"ts_us":3,"kind":"job","name":"done","attrs":{"id":"j000000","attempt":1,"elapsed_us":1500},"data":{"design":"arbiter2","canonical":"canon\n","proved":3}}`
	deadHole    = `{"design":"9f1c","key":"fsm:gstate:1->2","depth":4,"k":1}`
	walSubmit2  = `{"ts_us":4,"kind":"job","name":"submit","attrs":{"id":"j000001"},"data":{"tenant":"t","design":"b12"}}`
)

// session lists the appends of one recorded session: single records, one
// multi-record batch and a blank line.
var session = []struct {
	buf     string
	records int
}{
	{walSubmit + "\n", 1},
	{corpusEntry + "\n", 1},
	{walDone + "\n" + deadHole + "\n", 2},
	{"\n", 0},
	{walSubmit2 + "\n", 1},
}

// collect is a replay callback that keeps every line and rejects invalid
// JSON, the way the real callers reject what they cannot parse.
func collect(out *[]string) func([]byte) error {
	return func(line []byte) error {
		if !json.Valid(line) {
			return errors.New("invalid JSON")
		}
		*out = append(*out, string(line))
		return nil
	}
}

// recordSession plays the session through Open and Append on a fresh file
// and returns the bytes it left.
func recordSession(t testing.TB, dir string) []byte {
	t.Helper()
	path := filepath.Join(dir, "session.jsonl")
	l, err := Open(path, collect(new([]string)))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range session {
		if err := l.Append([]byte(a.buf), a.records); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// committed returns the non-blank lines whose '\n' lies inside data.
func committed(data []byte) []string {
	var out []string
	for _, l := range strings.SplitAfter(string(data), "\n") {
		if strings.HasSuffix(l, "\n") && len(l) > 1 {
			out = append(out, strings.TrimSuffix(l, "\n"))
		}
	}
	return out
}

// A crash can cut the file at any byte. Open must recover exactly the
// records whose newline made it, cut the rest off, and leave a file that
// takes one more append and replays it.
func TestCrashAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	full := recordSession(t, dir)
	if got := committed(full); len(got) != 5 {
		t.Fatalf("session holds %d records, want 5", len(got))
	}
	extra := `{"design":"9f1c","key":"line:42","depth":2,"k":1}`
	path := filepath.Join(dir, "cut.jsonl")
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		want := committed(full[:cut])
		var got []string
		l, err := Open(path, collect(&got))
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: replayed %q, want %q", cut, got, want)
		}
		good := int64(bytes.LastIndexByte(full[:cut], '\n') + 1)
		if fi, err := os.Stat(path); err != nil || fi.Size() != good {
			t.Fatalf("cut %d: file not truncated to %d: %v %v", cut, good, fi.Size(), err)
		}
		if err := l.Append([]byte(extra+"\n"), 1); err != nil {
			t.Fatalf("cut %d: Append: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got = nil
		n, err := Replay(path, collect(&got))
		if err != nil || n != good+int64(len(extra))+1 {
			t.Fatalf("cut %d: reopen good=%d err=%v", cut, n, err)
		}
		if want = append(want, extra); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: after append replayed %q, want %q", cut, got, want)
		}
	}
}

// A bad line is the torn tail only when nothing follows it. Any byte after
// it, a blank line included, is corruption reported with its line number,
// and Open refuses the file without touching it.
func TestBadLineFollowedByAnyByteIsFatal(t *testing.T) {
	dir := t.TempDir()
	lines := strings.SplitAfter(string(recordSession(t, dir)), "\n")
	path := filepath.Join(dir, "bad.jsonl")
	for i, line := range lines {
		if len(line) < 2 {
			continue // the blank line and the empty split remainder
		}
		prefix := strings.Join(lines[:i], "")
		bad := line[:len(line)/2] + "\n"
		rest := strings.Join(lines[i+1:], "")
		for _, tail := range []string{"", "\n", "x", "{}", rest} {
			good, err := replay(strings.NewReader(prefix+bad+tail), "p", collect(new([]string)))
			if tail == "" {
				if err != nil || good != int64(len(prefix)) {
					t.Errorf("line %d torn tail: good=%d err=%v, want %d", i+1, good, err, len(prefix))
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("p:%d: corrupt", i+1)) {
				t.Errorf("line %d followed by %q: err=%v, want corruption at line %d", i+1, tail, err, i+1)
			}
		}
		corrupt := prefix + bad + "\n"
		if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path, collect(new([]string))); err == nil {
			t.Errorf("line %d: Open accepted a corrupt file", i+1)
		}
		if data, _ := os.ReadFile(path); string(data) != corrupt {
			t.Errorf("line %d: Open modified a corrupt file", i+1)
		}
	}
}

func TestReplayMissingFileIsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "none.jsonl")
	good, err := Replay(path, collect(new([]string)))
	if good != 0 || err != nil {
		t.Fatalf("missing file: good=%d err=%v", good, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("Replay created the file: %v", err)
	}
}

// Failures are kept for Err and Dropped: the first error, and every record
// that did not persist — unencodable, unwritten, or appended but not synced.
func TestFailuresAreRecorded(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "log.jsonl"), collect(new([]string)))
	if err != nil {
		t.Fatal(err)
	}
	if l.Err() != nil || l.Dropped() != 0 {
		t.Fatalf("fresh log already failed: %v / %d", l.Err(), l.Dropped())
	}
	encErr := errors.New("encode")
	l.Fail(1, encErr)
	if err := l.Append([]byte(deadHole+"\n"), 1); err != nil {
		t.Fatal(err)
	}
	l.Close() // make the next sync and append fail, like a dead disk would
	if err := l.Sync(); err == nil {
		t.Fatal("Sync on a closed log succeeded")
	}
	if err := l.Append([]byte(walDone+"\n"+deadHole+"\n"), 2); err == nil {
		t.Fatal("Append on a closed log succeeded")
	}
	if !errors.Is(l.Err(), encErr) || l.Dropped() != 4 {
		t.Errorf("failures not recorded: err=%v dropped=%d, want encode / 4", l.Err(), l.Dropped())
	}
	var nilLog *Log
	if nilLog.Err() != nil || nilLog.Dropped() != 0 || nilLog.Close() != nil {
		t.Error("nil log must report no failures")
	}
}

// FuzzReplay checks the replay contract on arbitrary bytes: no panic, and on
// success good is a line boundary inside the input whose prefix replays to
// the same records.
func FuzzReplay(f *testing.F) {
	full := recordSession(f, f.TempDir())
	for _, n := range []int{0, 1, len(walSubmit), len(walSubmit) + 1, len(full) / 2, len(full) - 1, len(full)} {
		f.Add(full[:n])
	}
	f.Add(append([]byte("not json\n"), full...))
	f.Add(append(append([]byte{}, full...), "not json\n"...))
	f.Add(append(append([]byte{}, full...), "not json\n\n"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []string
		good, err := replay(bytes.NewReader(data), "fuzz", collect(&recs))
		if err != nil {
			return
		}
		if good < 0 || good > int64(len(data)) || (good > 0 && data[good-1] != '\n') {
			t.Fatalf("good=%d is not a line boundary of %d bytes", good, len(data))
		}
		var again []string
		good2, err := replay(bytes.NewReader(data[:good]), "fuzz", collect(&again))
		if err != nil || good2 != good || !reflect.DeepEqual(recs, again) {
			t.Fatalf("prefix replay: good=%d err=%v records=%q, want good=%d records=%q",
				good2, err, again, good, recs)
		}
	})
}
