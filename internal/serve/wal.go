package serve

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"goldmine/internal/jsonl"
	"goldmine/internal/telemetry"
)

// WAL record names. Every record is one JSONL line in the telemetry journal
// wire format (kind "job", encoded by telemetry.EncodeEvent): "submit"
// carries the full JobSpec as data, terminal records ("done", "quarantine",
// "cancel") settle the job, and the rest are progress markers that survive a
// crash ("start", "fail", "checkpoint").
const (
	walKind       = "job"
	walSubmit     = "submit"
	walStart      = "start"
	walDone       = "done"
	walFail       = "fail"
	walReject     = "reject"
	walQuarantine = "quarantine"
	walCancel     = "cancel"
	walCheckpoint = "checkpoint"
	walDrain      = "drain"
)

// wal is the durable write-ahead job journal on a jsonl.Log. Appends are
// synchronous and serialized: by the time a client learns a job ID (or a
// result), the corresponding record has reached the kernel, so a SIGKILLed
// process loses at most the record being written when it died, which the
// next open cuts off as the torn tail.
type wal struct {
	log      *jsonl.Log
	disabled atomic.Bool // set by Kill: simulates abrupt process death
	appends  atomic.Int64
}

// walJob is one job reconstructed by replay.
type walJob struct {
	ID       string
	Spec     JobSpec
	State    JobState
	Attempts int
	Err      string
	Artifact *Artifact
	// ChargedMS is the mining wall clock recorded against the job's tenant
	// (done records), replayed so budgets survive restarts.
	ChargedMS float64
}

// openWAL opens (or creates) the journal at path and replays it: the
// returned jobs are in original submit order with their latest state applied.
// A record applyRecord rejects is a bad line under the jsonl contract.
func openWAL(path string) (*wal, []*walJob, error) {
	byID := map[string]*walJob{}
	var order []*walJob
	log, err := jsonl.Open(path, func(line []byte) error {
		var je telemetry.JSONEvent
		if err := json.Unmarshal(line, &je); err != nil {
			return err
		}
		// Drain trailers are id-less lifecycle markers, not job records; a
		// restarted daemon appends past them, leaving them mid-file.
		if je.Kind != walKind || je.Name == walDrain {
			return nil
		}
		return applyRecord(byID, &order, &je)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	return &wal{log: log}, order, nil
}

func attrString(je *telemetry.JSONEvent, key string) string {
	s, _ := je.Attrs[key].(string)
	return s
}

func attrInt(je *telemetry.JSONEvent, key string) int64 {
	// encoding/json decodes numbers into float64.
	f, _ := je.Attrs[key].(float64)
	return int64(f)
}

func applyRecord(byID map[string]*walJob, order *[]*walJob, je *telemetry.JSONEvent) error {
	id := attrString(je, "id")
	if id == "" {
		return fmt.Errorf("job record %q without id", je.Name)
	}
	j := byID[id]
	if je.Name == walSubmit {
		if j != nil {
			return fmt.Errorf("duplicate submit for %s", id)
		}
		j = &walJob{ID: id, State: JobQueued}
		if je.Data == nil {
			return fmt.Errorf("submit %s without spec", id)
		}
		if err := json.Unmarshal(*je.Data, &j.Spec); err != nil {
			return fmt.Errorf("submit %s: %w", id, err)
		}
		byID[id] = j
		*order = append(*order, j)
		return nil
	}
	if j == nil {
		return fmt.Errorf("%s record for unknown job %s", je.Name, id)
	}
	switch je.Name {
	case walStart:
		j.State = JobRunning
		j.Attempts = int(attrInt(je, "attempt"))
	case walDone:
		j.State = JobDone
		j.ChargedMS += float64(attrInt(je, "elapsed_us")) / 1000
		if je.Data != nil {
			var a Artifact
			if err := json.Unmarshal(*je.Data, &a); err != nil {
				return fmt.Errorf("done %s: %w", id, err)
			}
			j.Artifact = &a
		}
	case walFail:
		j.State = JobQueued // retry pending
		j.Attempts = int(attrInt(je, "attempt"))
		j.Err = attrString(je, "error")
		j.ChargedMS += float64(attrInt(je, "elapsed_us")) / 1000
	case walReject:
		j.State = JobFailed
		j.Err = attrString(je, "error")
		j.ChargedMS += float64(attrInt(je, "elapsed_us")) / 1000
	case walQuarantine:
		j.State = JobQuarantined
		j.Err = attrString(je, "error")
	case walCancel:
		j.State = JobCanceled
	case walCheckpoint:
		// A drained in-flight job: pending again, attempt count retained
		// (the checkpoint was not a failure).
		j.State = JobQueued
		j.ChargedMS += float64(attrInt(je, "elapsed_us")) / 1000
	default:
		return fmt.Errorf("unknown job record %q for %s", je.Name, id)
	}
	return nil
}

// append encodes one record and writes it synchronously. Errors are returned
// so callers can surface them, and the log records them for /statsz, but the
// in-memory state machine proceeds regardless — a daemon with a sick disk
// degrades to non-durable operation rather than refusing all work.
func (w *wal) append(name string, data any, attrs ...telemetry.Attr) error {
	if w == nil || w.disabled.Load() {
		return nil
	}
	e := telemetry.Event{TS: time.Now(), Kind: walKind, Name: name, Attrs: attrs, Data: data}
	buf, err := telemetry.EncodeEvent(nil, &e)
	if err != nil {
		w.log.Fail(1, err)
		return fmt.Errorf("wal: encode %s: %w", name, err)
	}
	if err := w.log.Append(buf, 1); err != nil {
		return fmt.Errorf("wal: append %s: %w", name, err)
	}
	w.appends.Add(1)
	return nil
}

// disable stops all further writes without flushing anything — the Kill path
// uses it to make an in-process restart indistinguishable from SIGKILL.
func (w *wal) disable() {
	if w != nil {
		w.disabled.Store(true)
	}
}

func (w *wal) close() error {
	if w == nil {
		return nil
	}
	return w.log.Close()
}
