//go:build linux

package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// setFileSizeLimit sets the process's RLIMIT_FSIZE soft limit: a write past
// it is cut short and then fails with EFBIG, the same part-way failure a
// full disk produces. The Go runtime ignores the SIGXFSZ that comes with it.
func setFileSizeLimit(t *testing.T, n uint64) {
	t.Helper()
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	lim.Cur = n
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
}

// getStatsz reads the server's /statsz over HTTP.
func getStatsz(t *testing.T, s *Server) Stats {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestWALSubmitLostToFullDiskStillRestarts: a submit record the disk cut
// short (nothing of it, or part of it) stops the WAL, so neither the job's
// later start and done records nor anything else is written after it. The
// daemon keeps serving, /statsz reports the loss, and a restart on the same
// WAL recovers every job journaled before the failure and appends again.
// Were later records written, the start record would weld onto a partial
// submit (mid-file corruption) or outlive a lost one ("record for unknown
// job"), and the daemon would refuse to restart.
func TestWALSubmitLostToFullDiskStillRestarts(t *testing.T) {
	var orig syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &orig); err != nil {
		t.Fatal(err)
	}
	for _, room := range []uint64{0, 1, 40} {
		cfg := testConfig(okRunner)
		cfg.WALPath = filepath.Join(t.TempDir(), "wal.jsonl")
		s := mustServer(t, cfg)
		j0, err := s.Submit(spec("t"))
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := s.WaitJob(context.Background(), j0.ID); got.State != JobDone {
			t.Fatalf("room %d: first job state = %s, want done", room, got.State)
		}
		fi, err := os.Stat(cfg.WALPath)
		if err != nil {
			t.Fatal(err)
		}
		journaled := uint64(fi.Size())

		setFileSizeLimit(t, journaled+room)
		j1, err := s.Submit(spec("t"))
		setFileSizeLimit(t, orig.Cur)
		if err != nil {
			t.Fatalf("room %d: submit on a full disk: %v", room, err)
		}
		if got, _ := s.WaitJob(context.Background(), j1.ID); got.State != JobDone {
			t.Fatalf("room %d: job state = %s, want done despite the full disk", room, got.State)
		}
		if st := getStatsz(t, s); st.WALDropped != 3 || !strings.Contains(st.WALPersistErr, "file too large") {
			t.Errorf("room %d: /statsz wal_dropped=%d wal_persist_err=%q, want 3 (submit, start, done) and EFBIG",
				room, st.WALDropped, st.WALPersistErr)
		}
		if fi, err := os.Stat(cfg.WALPath); err != nil || uint64(fi.Size()) != journaled+room {
			t.Errorf("room %d: WAL grew past the failed submit: %d bytes, want %d", room, fi.Size(), journaled+room)
		}
		s.Kill()

		s2 := mustServer(t, cfg)
		jobs := s2.Jobs("")
		if len(jobs) != 1 || jobs[0].ID != j0.ID || jobs[0].State != JobDone {
			t.Fatalf("room %d: restart recovered %+v, want only the done %s", room, jobs, j0.ID)
		}
		j2, err := s2.Submit(spec("t"))
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := s2.WaitJob(context.Background(), j2.ID); got.State != JobDone {
			t.Fatalf("room %d: job after restart state = %s, want done", room, got.State)
		}
		s2.Kill()
		s3 := mustServer(t, cfg)
		if jobs := s3.Jobs(""); len(jobs) != 2 || jobs[1].ID != j2.ID {
			t.Errorf("room %d: second restart lists %d jobs, want %s and %s", room, len(jobs), j0.ID, j2.ID)
		}
		s3.Kill()
	}
}
