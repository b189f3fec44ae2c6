// Package jsonl is the crash-safe JSON-lines log behind every file the
// pipeline keeps between runs: the daemon's job WAL, the assertion corpus
// store and the dead-hole corpus. It owns the durability contract, so the
// callers only parse and encode their own records:
//
//   - A line counts as written only if it ends in '\n'. An unterminated final
//     line is the torn tail of an interrupted append and is never replayed,
//     even when its bytes happen to parse.
//   - Blank lines are skipped. Every other line goes to the replay callback;
//     a line the callback rejects is bad. A bad line is the torn tail only if
//     no byte follows it. Any byte after it, even a blank line, proves it was
//     written over, so replay fails with an error naming the path and line.
//   - Open cuts the torn tail off before the first append, so a new record
//     never welds onto a partial one.
//   - Each Append is one Write of whole, newline-terminated records; Sync is
//     separate and optional. Failed appends and syncs are recorded for
//     Err and Dropped instead of being lost.
//   - The first failed Write or Sync stops the log: every later Append is
//     refused with that error and counts as dropped. A write that failed
//     part-way leaves its partial record as the torn tail the next Open
//     cuts, and no record can persist after an earlier one that was lost.
package jsonl

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"
)

// Replay calls fn on every committed, non-blank line of path, in file order,
// and returns good: the length of the file without its torn tail. A missing
// file replays as empty. Replay never writes. fn must not retain line.
func Replay(path string, fn func(line []byte) error) (good int64, err error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return replay(f, path, fn)
}

func replay(r io.Reader, path string, fn func(line []byte) error) (good int64, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var off int64
	var bad error   // the last line fn rejected, fatal if any byte follows
	var long []byte // a line longer than br's buffer, accumulated
	for lineNo, badNo := 1, 0; ; lineNo++ {
		// A line that fits the buffer is handed to fn in place, uncopied:
		// fn must not retain it.
		raw, rerr := br.ReadSlice('\n')
		if rerr == bufio.ErrBufferFull {
			long = append(long[:0], raw...)
			for rerr == bufio.ErrBufferFull {
				raw, rerr = br.ReadSlice('\n')
				long = append(long, raw...)
			}
			raw = long
		}
		if len(raw) > 0 && bad != nil {
			return 0, fmt.Errorf("%s:%d: corrupt record: %w", path, badNo, bad)
		}
		if rerr == io.EOF {
			return good, nil // raw, if any, is an unterminated torn tail
		}
		if rerr != nil {
			return 0, fmt.Errorf("%s: %w", path, rerr)
		}
		off += int64(len(raw))
		if line := raw[:len(raw)-1]; len(line) > 0 {
			if err := fn(line); err != nil {
				bad, badNo = err, lineNo
				continue
			}
		}
		good = off
	}
}

// Log is a JSONL file open for appending. Its methods are safe for
// concurrent use; Err, Dropped and Close also accept a nil Log.
type Log struct {
	mu       sync.Mutex
	f        *os.File
	w        sink  // where Append writes and Sync flushes: f, or a test's sick disk
	unsynced int64 // records written since the last successful Sync
	dropped  int64
	err      error // the first failure of any kind, for Err
	stop     error // the first failed Write or Sync; nothing is written after it
}

// sink is the file a Log writes through; tests stand in a failing one.
type sink interface {
	io.Writer
	Sync() error
}

// Open replays path (created if missing) through fn like Replay, cuts the
// torn tail off, and returns the file ready for appends.
func Open(path string, fn func(line []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	good, err := replay(f, path, fn)
	var fi os.FileInfo
	if err == nil {
		fi, err = f.Stat()
	}
	// Truncate only when there is a tail to cut: on ext4, truncating a file
	// to zero makes its next close flush the data, which a fresh log must
	// not pay.
	if err == nil && fi.Size() > good {
		err = f.Truncate(good)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f, w: f}, nil
}

// Append writes buf, which holds records whole newline-terminated lines, in
// one Write. A failure is returned and also recorded for Err and Dropped.
// After a failed Write or Sync, Append writes nothing and returns that
// failure.
func (l *Log) Append(buf []byte, records int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stop != nil {
		l.failLocked(int64(records), l.stop)
		return l.stop
	}
	if _, err := l.w.Write(buf); err != nil {
		l.stop = err
		l.failLocked(int64(records), err)
		return err
	}
	l.unsynced += int64(records)
	return nil
}

// Sync flushes the appended records to stable storage. If it fails, every
// record appended since the last successful Sync counts as dropped.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.w.Sync()
	if err != nil {
		if l.stop == nil {
			l.stop = err
		}
		l.failLocked(l.unsynced, err)
	}
	l.unsynced = 0
	return err
}

// Fail records records that never reached Append, such as ones the caller
// could not encode, as dropped with err.
func (l *Log) Fail(records int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failLocked(int64(records), err)
}

func (l *Log) failLocked(records int64, err error) {
	l.dropped += records
	if l.err == nil {
		l.err = err
	}
}

// Err returns the first append or sync failure, or nil while every record
// handed to the log has been written.
func (l *Log) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Dropped returns how many records failed to persist.
func (l *Log) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Close closes the file; later appends fail and count as dropped.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
