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
	"syscall"
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

// Replay reads lines in place from its buffer and accumulates only a line
// longer than the buffer. Such lines, committed or torn, must replay exactly
// as short ones do, and a short line after a long one must not see its bytes.
func TestReplayLinesLongerThanTheBuffer(t *testing.T) {
	long := func(n int) string { return `{"pad":"` + strings.Repeat("x", n) + `"}` }
	lines := []string{walSubmit, long(200 << 10), walDone, long(64<<10 - 9), long(64 << 10), deadHole}
	data := strings.Join(lines, "\n") + "\n"
	for _, tail := range []string{"", long(100 << 10)[:90<<10]} {
		var got []string
		good, err := replay(strings.NewReader(data+tail), "long", collect(&got))
		if err != nil || good != int64(len(data)) {
			t.Fatalf("tail %d bytes: good=%d err=%v, want good=%d", len(tail), good, err, len(data))
		}
		if !reflect.DeepEqual(got, lines) {
			t.Fatalf("tail %d bytes: replayed records differ from the written ones", len(tail))
		}
	}
	bad := long(100 << 10)[:90<<10] + "\n" + walSubmit + "\n"
	if _, err := replay(strings.NewReader(data+bad), "long", collect(new([]string))); err == nil ||
		!strings.Contains(err.Error(), fmt.Sprintf("long:%d:", len(lines)+1)) {
		t.Fatalf("long bad line followed by a record: err=%v, want corruption at line %d", err, len(lines)+1)
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

// sickDisk stands in for the log's file: it takes room more bytes and then
// fails every write with ENOSPC, cutting a record part-way like a full disk;
// syncErr, when set, fails Sync.
type sickDisk struct {
	*os.File
	room    int
	syncErr error
}

func (d *sickDisk) Write(p []byte) (int, error) {
	if len(p) <= d.room {
		d.room -= len(p)
		return d.File.Write(p)
	}
	n, err := d.File.Write(p[:d.room])
	d.room -= n
	if err == nil {
		err = syscall.ENOSPC
	}
	return n, err
}

func (d *sickDisk) Sync() error {
	if d.syncErr != nil {
		return d.syncErr
	}
	return d.File.Sync()
}

// A write that fails part-way stops the log at every cut point: later
// appends are refused even once the disk has room again, so the partial
// record stays the torn tail, and Open recovers exactly the records written
// before the failure and takes appends again.
func TestFailedWriteStopsTheLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sick.jsonl")
	before := walSubmit + "\n" + corpusEntry + "\n"
	failed := walDone + "\n"
	for cut := 0; cut < len(failed); cut++ {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		l, err := Open(path, collect(new([]string)))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append([]byte(before), 2); err != nil {
			t.Fatal(err)
		}
		l.w = &sickDisk{File: l.f, room: cut}
		if err := l.Append([]byte(failed), 1); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("cut %d: Append on a full disk: %v, want ENOSPC", cut, err)
		}
		l.w = l.f // the disk has room again; the log must stay stopped
		if err := l.Append([]byte(walSubmit2+"\n"), 1); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("cut %d: Append after a failed write: %v, want the recorded ENOSPC", cut, err)
		}
		if !errors.Is(l.Err(), syscall.ENOSPC) || l.Dropped() != 2 {
			t.Fatalf("cut %d: err=%v dropped=%d, want ENOSPC / 2", cut, l.Err(), l.Dropped())
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := before + failed[:cut]; string(data) != want {
			t.Fatalf("cut %d: file holds %q, want %q", cut, data, want)
		}
		var got []string
		if l, err = Open(path, collect(&got)); err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if want := []string{walSubmit, corpusEntry}; !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: reopen replayed %q, want %q", cut, got, want)
		}
		if err := l.Append([]byte(walSubmit2+"\n"), 1); err != nil {
			t.Fatalf("cut %d: Append after reopen: %v", cut, err)
		}
		l.Close()
		got = nil
		if _, err := Replay(path, collect(&got)); err != nil ||
			!reflect.DeepEqual(got, []string{walSubmit, corpusEntry, walSubmit2}) {
			t.Fatalf("cut %d: after reopen and append replayed %q, err %v", cut, got, err)
		}
	}
}

// A failed Sync stops the log too: the records it did not flush count as
// dropped, and nothing is appended after them.
func TestFailedSyncStopsTheLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sick.jsonl")
	l, err := Open(path, collect(new([]string)))
	if err != nil {
		t.Fatal(err)
	}
	disk := &sickDisk{File: l.f, room: 1 << 20}
	l.w = disk
	if err := l.Append([]byte(walSubmit+"\n"), 1); err != nil {
		t.Fatal(err)
	}
	disk.syncErr = syscall.EIO
	if err := l.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Sync: %v, want EIO", err)
	}
	disk.syncErr = nil
	if err := l.Append([]byte(walDone+"\n"), 1); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Append after a failed Sync: %v, want the recorded EIO", err)
	}
	if l.Dropped() != 2 {
		t.Errorf("dropped = %d, want the unsynced record and the refused one", l.Dropped())
	}
	l.Close()
	if data, _ := os.ReadFile(path); string(data) != walSubmit+"\n" {
		t.Errorf("file holds %q, want only the record before the failed Sync", data)
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
