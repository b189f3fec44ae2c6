package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"goldmine/internal/telemetry"
)

func openTestWAL(t *testing.T, path string) (*wal, []*walJob) {
	t.Helper()
	w, jobs, err := openWAL(path)
	if err != nil {
		t.Fatalf("openWAL: %v", err)
	}
	return w, jobs
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	w, jobs := openTestWAL(t, path)
	if len(jobs) != 0 {
		t.Fatalf("fresh WAL replayed %d jobs", len(jobs))
	}
	spec := JobSpec{Tenant: "t1", Request: Request{Design: "arbiter2"}}
	art := &Artifact{Design: "arbiter2", Canonical: "canon\n", Proved: 3}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.append(walSubmit, &spec, telemetry.String("id", "j000000")))
	must(w.append(walStart, nil, telemetry.String("id", "j000000"), telemetry.Int("attempt", 1)))
	must(w.append(walDone, art, telemetry.String("id", "j000000"),
		telemetry.Int("attempt", 1), telemetry.Int("elapsed_us", 1500)))

	must(w.append(walSubmit, &JobSpec{Tenant: "t2", Request: Request{Design: "decode"}}, telemetry.String("id", "j000001")))
	must(w.append(walStart, nil, telemetry.String("id", "j000001"), telemetry.Int("attempt", 1)))
	must(w.append(walFail, nil, telemetry.String("id", "j000001"),
		telemetry.Int("attempt", 1), telemetry.String("error", "boom"),
		telemetry.Int("elapsed_us", 2000)))

	must(w.append(walSubmit, &JobSpec{Tenant: "t3", Request: Request{Design: "fetch"}}, telemetry.String("id", "j000002")))
	must(w.append(walCancel, nil, telemetry.String("id", "j000002")))
	must(w.close())

	_, jobs = openTestWAL(t, path)
	if len(jobs) != 3 {
		t.Fatalf("replayed %d jobs, want 3", len(jobs))
	}
	j0, j1, j2 := jobs[0], jobs[1], jobs[2]
	if j0.State != JobDone || j0.Artifact == nil || j0.Artifact.Canonical != "canon\n" {
		t.Fatalf("j0 = %+v, want done with artifact", j0)
	}
	if j0.ChargedMS != 1.5 {
		t.Fatalf("j0 charged = %v ms, want 1.5", j0.ChargedMS)
	}
	if j1.State != JobQueued || j1.Attempts != 1 || j1.Err != "boom" {
		t.Fatalf("j1 = %+v, want queued retry with attempt 1", j1)
	}
	if j2.State != JobCanceled {
		t.Fatalf("j2 state = %s, want canceled", j2.State)
	}
	if j0.Spec.Tenant != "t1" || j1.Spec.Design != "decode" {
		t.Fatal("specs did not survive the round trip")
	}
}

// TestWALTornFinalLine: a SIGKILL can tear the record being written; replay
// ignores exactly that final partial line.
func TestWALTornFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	w, _ := openTestWAL(t, path)
	if err := w.append(walSubmit, &JobSpec{Tenant: "t", Request: Request{Design: "d"}}, telemetry.String("id", "j000000")); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"ts_us":123,"kind":"job","name":"done","att`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, jobs := openTestWAL(t, path)
	if len(jobs) != 1 || jobs[0].State != JobQueued {
		t.Fatalf("replay after torn line = %+v, want the 1 queued job", jobs)
	}
}

// TestWALMidFileCorruption: a bad line with valid records after it is real
// corruption, not a torn tail — the open must fail loudly.
func TestWALMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	content := `{"ts_us":1,"kind":"job","name":"submit","attrs":{"id":"j000000"},"data":{"tenant":"t","design":"d"}}
this is not json
{"ts_us":3,"kind":"job","name":"start","attrs":{"id":"j000000","attempt":1}}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openWAL(path); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("openWAL err = %v, want mid-file corruption error", err)
	}
}

// TestWALDrainMarkerMidFile: the id-less drain trailer Shutdown appends must
// not poison replay — a daemon that drains, restarts, does more work, and
// restarts again leaves drain markers mid-file, and every open must succeed.
func TestWALDrainMarkerMidFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	w, _ := openTestWAL(t, path)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.append(walSubmit, &JobSpec{Tenant: "t", Request: Request{Design: "d"}}, telemetry.String("id", "j000000")))
	must(w.append(walDrain, nil)) // first graceful shutdown
	must(w.close())

	// Restart: replay succeeds past the trailer, daemon appends more work.
	w2, jobs := openTestWAL(t, path)
	if len(jobs) != 1 {
		t.Fatalf("replay after drain = %d jobs, want 1", len(jobs))
	}
	must(w2.append(walSubmit, &JobSpec{Tenant: "t", Request: Request{Design: "d2"}}, telemetry.String("id", "j000001")))
	must(w2.append(walDrain, nil)) // second graceful shutdown
	must(w2.close())

	// Second restart: the first drain marker now sits mid-file.
	_, jobs = openTestWAL(t, path)
	if len(jobs) != 2 {
		t.Fatalf("replay with mid-file drain = %d jobs, want 2", len(jobs))
	}
}

// TestWALCorruptThenBlankTail: a malformed record followed only by blank
// lines is still mid-file corruption — bytes were written after the bad
// record, so it cannot have been a torn tail.
func TestWALCorruptThenBlankTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	content := `{"ts_us":1,"kind":"job","name":"submit","attrs":{"id":"j000000"},"data":{"tenant":"t","design":"d"}}
this is not json

`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openWAL(path); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("openWAL err = %v, want mid-file corruption error", err)
	}
}

// TestWALForeignRecordsIgnored: telemetry events sharing the file (other
// kinds) are skipped, so a combined journal still replays.
func TestWALForeignRecordsIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	content := `{"ts_us":1,"kind":"event","name":"serve.submit"}
{"ts_us":2,"kind":"job","name":"submit","attrs":{"id":"j000000"},"data":{"tenant":"t","design":"d"}}
{"ts_us":3,"kind":"close"}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, jobs := openTestWAL(t, path)
	if len(jobs) != 1 {
		t.Fatalf("replayed %d jobs, want 1", len(jobs))
	}
}

// TestWALDisable: after disable (the simulated SIGKILL), appends are no-ops.
func TestWALDisable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	w, _ := openTestWAL(t, path)
	if err := w.append(walSubmit, &JobSpec{Tenant: "t", Request: Request{Design: "d"}}, telemetry.String("id", "j000000")); err != nil {
		t.Fatal(err)
	}
	w.disable()
	if err := w.append(walDone, nil, telemetry.String("id", "j000000")); err != nil {
		t.Fatal(err)
	}
	_ = w.close()
	_, jobs := openTestWAL(t, path)
	if len(jobs) != 1 || jobs[0].State != JobQueued {
		t.Fatalf("post-disable replay = %+v, want 1 queued job (done suppressed)", jobs)
	}
}

// TestWALTornTailThenAppend: a daemon restarted over a torn record keeps
// appending. The torn bytes must be cut off first; otherwise the next submit
// welds onto them and the restart after drops a job whose ID the client
// already holds.
func TestWALTornTailThenAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	w, _ := openTestWAL(t, path)
	if err := w.append(walSubmit, &JobSpec{Tenant: "t", Request: Request{Design: "d"}}, telemetry.String("id", "j000000")); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"ts_us":123,"kind":"job","name":"done","att`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, jobs := openTestWAL(t, path)
	if len(jobs) != 1 {
		t.Fatalf("replay after torn line = %d jobs, want 1", len(jobs))
	}
	if err := w2.append(walSubmit, &JobSpec{Tenant: "t", Request: Request{Design: "d2"}}, telemetry.String("id", "j000001")); err != nil {
		t.Fatal(err)
	}
	if err := w2.close(); err != nil {
		t.Fatal(err)
	}
	_, jobs = openTestWAL(t, path)
	if len(jobs) != 2 || jobs[0].ID != "j000000" || jobs[1].ID != "j000001" {
		t.Fatalf("restart after torn tail + append = %+v, want j000000 and j000001", jobs)
	}
}

// TestWALDropsUnterminatedFinalLine: a crash between a record's JSON and its
// newline leaves a line that parses but was never committed. Replay drops it,
// and the next append starts a clean line.
func TestWALDropsUnterminatedFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	w, _ := openTestWAL(t, path)
	for _, id := range []string{"j000000", "j000001"} {
		if err := w.append(walSubmit, &JobSpec{Tenant: "t", Request: Request{Design: "d"}}, telemetry.String("id", id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-1); err != nil {
		t.Fatal(err)
	}

	w2, jobs := openTestWAL(t, path)
	if len(jobs) != 1 || jobs[0].ID != "j000000" {
		t.Fatalf("unterminated submit applied: replay = %+v, want j000000 only", jobs)
	}
	if err := w2.append(walSubmit, &JobSpec{Tenant: "t", Request: Request{Design: "d2"}}, telemetry.String("id", "j000001")); err != nil {
		t.Fatal(err)
	}
	if err := w2.close(); err != nil {
		t.Fatal(err)
	}
	_, jobs = openTestWAL(t, path)
	if len(jobs) != 2 || jobs[1].ID != "j000001" || jobs[1].Spec.Design != "d2" {
		t.Fatalf("restart = %+v, want j000000 and the re-issued j000001", jobs)
	}
}

// TestWALRecordsPersistenceErrors: a WAL that stops taking writes keeps the
// daemon serving, and /statsz reports the lost records and the first error.
func TestWALRecordsPersistenceErrors(t *testing.T) {
	cfg := testConfig(okRunner)
	cfg.WALPath = filepath.Join(t.TempDir(), "wal.jsonl")
	s := mustServer(t, cfg)
	defer s.Kill()
	if st := s.Stats(); st.WALDropped != 0 || st.WALPersistErr != "" {
		t.Fatalf("fresh WAL already failed: %d / %q", st.WALDropped, st.WALPersistErr)
	}
	s.wal.log.Close() // make the next append fail, like a dead disk would
	j, err := s.Submit(spec("t"))
	if err != nil {
		t.Fatalf("submit with a dead WAL: %v", err)
	}
	if got, _ := s.WaitJob(context.Background(), j.ID); got.State != JobDone {
		t.Fatalf("job state = %s, want done despite the dead WAL", got.State)
	}
	if st := s.Stats(); st.WALDropped < 1 || st.WALPersistErr == "" {
		t.Errorf("append failures not recorded: dropped=%d err=%q", st.WALDropped, st.WALPersistErr)
	}
}

// TestWALSubmitWireForm replays submit records written before JobSpec
// embedded Request (the bytes below are that encoder's output) and
// re-encodes each spec: the fields decode unchanged, and every record
// re-encodes to its own bytes except that timeout_ms, now the daemon's field
// after the embedded request, follows check_timeout_ms.
func TestWALSubmitWireForm(t *testing.T) {
	const old = `{"ts_us":1792444545523004,"kind":"job","name":"submit","attrs":{"id":"j000000"},"data":{"tenant":"ci","design":"arbiter2"}}
{"ts_us":1792444545523194,"kind":"job","name":"submit","attrs":{"id":"j000001"},"data":{"tenant":"acme","design":"fetch","output":"pc","bit":1,"seed":"random:64","window":2,"max_iter":12,"workers":3,"batched":true,"full_ctx":true,"check_timeout_ms":250}}
{"ts_us":1792444545523211,"kind":"job","name":"submit","attrs":{"id":"j000002"},"data":{"tenant":"acme","source":"module inv(input a, output y); assign y = ~a; endmodule\n","output":"y","seed":"none","workers":2,"timeout_ms":5000,"check_timeout_ms":40}}
`
	bit, win := 1, 2
	want := []JobSpec{
		{Tenant: "ci", Request: Request{Design: "arbiter2"}},
		{Tenant: "acme", Request: Request{Design: "fetch", Output: "pc", Bit: &bit, Seed: "random:64",
			Window: &win, MaxIter: 12, Workers: 3, Batched: true, FullCtx: true, CheckTimeoutMS: 250}},
		{Tenant: "acme", TimeoutMS: 5000, Request: Request{
			Source: "module inv(input a, output y); assign y = ~a; endmodule\n", Output: "y",
			Seed: "none", Workers: 2, CheckTimeoutMS: 40}},
	}
	lines := strings.Split(strings.TrimSuffix(old, "\n"), "\n")
	lines[2] = strings.Replace(lines[2], `"timeout_ms":5000,"check_timeout_ms":40`,
		`"check_timeout_ms":40,"timeout_ms":5000`, 1)

	path := filepath.Join(t.TempDir(), "wal.jsonl")
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	_, jobs := openTestWAL(t, path)
	if len(jobs) != len(want) {
		t.Fatalf("replayed %d jobs, want %d", len(jobs), len(want))
	}
	for i, j := range jobs {
		if !reflect.DeepEqual(j.Spec, want[i]) {
			t.Errorf("%s: replayed %+v, want %+v", j.ID, j.Spec, want[i])
		}
		var ts int64
		fmt.Sscanf(lines[i], `{"ts_us":%d`, &ts)
		got, err := telemetry.EncodeEvent(nil, &telemetry.Event{TS: time.UnixMicro(ts),
			Kind: walKind, Name: walSubmit, Attrs: []telemetry.Attr{telemetry.String("id", j.ID)}, Data: &j.Spec})
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimSuffix(string(got), "\n"); got != lines[i] {
			t.Errorf("%s re-encodes to\n%s\nwant\n%s", j.ID, got, lines[i])
		}
	}
}
