// Package serve is the mining-as-a-service layer: a fault-tolerant,
// multi-tenant daemon core that accepts design+options mining jobs over a
// JSON API and mines each job on a fresh engine on one shared verdict cache.
//
// Robustness is the organizing principle — every failure mode degrades
// gracefully instead of losing work:
//
//   - Admission control: the job queue is bounded; a full queue rejects with
//     a typed ErrQueueFull (HTTP 429 + Retry-After), never by blocking or by
//     unbounded memory growth.
//   - Per-tenant budgets: each tenant gets a mining wall-clock budget (the
//     PR 1 deadline plumbing caps a job's context at the tenant's remaining
//     budget, so exhaustion mid-job yields a clean partial artifact), plus a
//     queued-job cap so one tenant cannot starve the others out of the queue.
//   - Retry with backoff: a job that dies to mc.ErrEngineInternal (worker
//     panic, engine crash) is retried with exponential backoff + jitter and
//     quarantined after a capped number of attempts — a poisoned job can
//     never wedge a worker loop.
//   - Durable jobs: every transition (submit, start, done, fail, quarantine,
//     cancel, checkpoint) is appended synchronously to a JSONL write-ahead
//     journal (the telemetry wire format, see telemetry.EncodeEvent). A
//     killed-and-restarted daemon replays the journal: completed jobs are
//     re-served from their recorded artifacts without recomputation, pending
//     jobs resume in submit order.
//   - Graceful drain: Shutdown stops admission, lets in-flight jobs finish
//     (or checkpoints them after the drain timeout — they resume on the next
//     start), flushes the journal, and returns so the daemon can exit 0.
//   - Liveness: Healthz/Readyz surface queue depth, drain state, and worker
//     liveness for load balancers.
//
// Each job attempt builds its own core.Engine, as cmd/goldmine does; the
// engines share one process-wide LRU verdict cache
// (sched.NewVerdictCacheSized), so tenants mining the same design hit each
// other's warm verdicts across jobs.
package serve
