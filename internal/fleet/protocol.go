package fleet

import (
	"encoding/json"

	"nord/internal/serve"
	"nord/internal/stats"
)

// The fleet wire protocol: five POST endpoints under /fleet/v1/
// (register, unregister, lease, heartbeat, result), JSON bodies both
// ways. Workers are clients only — the coordinator never dials a worker,
// so workers behind NAT or ephemeral containers work unchanged.

// RegisterRequest announces a worker (idempotent; re-registration after
// a coordinator restart is the expected recovery path).
type RegisterRequest struct {
	WorkerID string `json:"worker_id"`
}

// RegisterResponse hands the worker the fleet timings it must honor.
type RegisterResponse struct {
	HeartbeatMs int64 `json:"heartbeat_ms"`
	PollWaitMs  int64 `json:"poll_wait_ms"`
}

// LeaseRequest asks for one job, parking up to WaitMs when the queue is
// empty (bounded server-side by the poll wait granted at registration,
// LeaseTTL/5).
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
	WaitMs   int64  `json:"wait_ms,omitempty"`
}

// LeaseGrant is a leased job: the original submission body plus the
// lease identity the worker must present on every heartbeat and on the
// result report. The attempt count stays with the coordinator (and its
// journal); the worker needs neither it nor the cache key, because its
// result reaches the cache only through the report.
type LeaseGrant struct {
	JobID string `json:"job_id"`
	Lease string `json:"lease"`
	// DeadlineMs is the per-execution wall-clock budget (0 = unbounded).
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// Request is the job's original POST /v1/jobs body.
	Request json.RawMessage `json:"request"`
}

// HeartbeatRequest extends a lease and optionally carries the latest
// progress snapshot for the job's /events subscribers.
type HeartbeatRequest struct {
	WorkerID string          `json:"worker_id"`
	JobID    string          `json:"job_id"`
	Lease    string          `json:"lease"`
	Progress *stats.Progress `json:"progress,omitempty"`
}

// Heartbeat and result statuses.
const (
	// StatusOK: lease extended, keep going.
	StatusOK = "ok"
	// StatusLost: the lease is no longer current (expired and requeued,
	// or the job is gone). The worker must abandon the run and must not
	// report a result.
	StatusLost = "lost"
	// StatusCanceled: the client canceled the job. The worker cancels
	// the run's context and reports a canceled outcome.
	StatusCanceled = "canceled"
	// StatusAccepted: the result was recorded.
	StatusAccepted = "accepted"
	// StatusStale: the result arrived under a superseded lease and was
	// discarded.
	StatusStale = "stale"
	// StatusUnknown: the job is not (or no longer) tracked.
	StatusUnknown = "unknown"
	// StatusRequeued: the worker's give-back was accepted and the job
	// returned to the queue.
	StatusRequeued = "requeued"
)

// HeartbeatResponse reports the lease's standing.
type HeartbeatResponse struct {
	Status string `json:"status"`
}

// ResultRequest reports a finished (or given-back) execution.
type ResultRequest struct {
	WorkerID string `json:"worker_id"`
	JobID    string `json:"job_id"`
	Lease    string `json:"lease"`
	// Requeue gives the job back unfinished (graceful worker shutdown
	// mid-run): the coordinator requeues it instead of finalising.
	Requeue bool                `json:"requeue,omitempty"`
	Outcome serve.RemoteOutcome `json:"outcome"`
}

// ResultResponse acknowledges a result report.
type ResultResponse struct {
	Status string `json:"status"`
}
