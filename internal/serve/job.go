package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"time"

	"nord/internal/obs"
	"nord/internal/stats"
)

// JobState is a job's lifecycle state.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// maxProgressHistory and maxTraceHistory bound the per-job histories
// replayed to new /events and /trace subscribers (see feed).
const (
	maxProgressHistory = 4096
	maxTraceHistory    = 1 << 16
)

// Job is one submitted simulation: its identity (ID for clients, Key for
// the content-addressed cache), its lifecycle state, the marshalled
// result once done, and the progress-snapshot fan-out for /events
// streams.
type Job struct {
	ID      string
	Key     string
	Kind    string
	Created time.Time

	task *task

	ctx    context.Context
	cancel context.CancelFunc
	// done closes when the job reaches a terminal state, so search
	// evaluations (and other in-process waiters) can select on completion
	// without polling.
	done chan struct{}

	mu    sync.Mutex
	state JobState
	// ephemeral marks a job created on behalf of a search evaluation and
	// not (yet) claimed by any direct submission; waiters counts the
	// search evaluations currently waiting on it. When the last waiter
	// abandons a still-ephemeral job (its search was canceled), the job
	// itself is canceled — nobody wants the result anymore.
	ephemeral bool
	waiters   int
	cacheHit  bool
	errMsg    string
	// sealed closes the progress history: set when the terminal view is
	// rendered (seal), an instant before the state turns terminal.
	sealed bool
	// view is the GET /v1/jobs/{id} body of the terminal job, rendered
	// once by seal; result is the payload inside it (a sub-slice: the
	// view, the result and the cache entry share one backing array).
	// Both are immutable once set. view stays nil while the job is live.
	view      []byte
	result    []byte
	lastCycle uint64
	// progress feeds /events. trace feeds /trace and is populated only for
	// traced jobs (task.traced): batches of events drained from the run's
	// tracer, plus the recording totals stamped when the run finishes.
	progress     feed[stats.Progress]
	trace        feed[obs.Event]
	traceTotal   uint64
	traceDropped uint64
}

// feed is one of a job's two streams: a bounded history replayed to new
// subscribers — when a publish would overflow max, the oldest half is
// dropped — plus a best-effort fan-out of each published batch. The
// history is authoritative; a subscriber whose channel is full misses the
// batch. The job's mutex guards it.
type feed[T any] struct {
	max  int
	log  []T
	subs map[chan []T]struct{}
}

// publish appends a batch the feed may keep (subscribers share it
// read-only) and fans it out; j.mu must be held.
func (f *feed[T]) publish(batch []T) {
	if len(f.log)+len(batch) > f.max {
		f.log = append(f.log[:0], f.log[len(f.log)/2:]...)
	}
	f.log = append(f.log, batch...)
	for ch := range f.subs {
		select {
		case ch <- batch:
		default:
		}
	}
}

// close ends every subscriber's stream and forgets it; j.mu must be held.
func (f *feed[T]) close() {
	for ch := range f.subs {
		close(ch)
	}
	clear(f.subs)
}

// subscribe returns f's history so far and a channel of future batches,
// closed when the job reaches a terminal state (at once if it already
// has). Call the returned cancel function when done reading.
func subscribe[T any](j *Job, f *feed[T]) ([]T, chan []T, func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	history := append([]T(nil), f.log...)
	// 64 publishes of slack before a slow reader starts missing batches.
	ch := make(chan []T, 64)
	if j.state.Terminal() {
		close(ch)
		return history, ch, func() {}
	}
	if f.subs == nil {
		f.subs = map[chan []T]struct{}{}
	}
	f.subs[ch] = struct{}{}
	return history, ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := f.subs[ch]; ok {
			delete(f.subs, ch)
			close(ch)
		}
	}
}

func newJob(id string, t *task) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	return &Job{
		ID:       id,
		Key:      t.key,
		Kind:     t.kind,
		Created:  time.Now(),
		task:     t,
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		state:    JobQueued,
		progress: feed[stats.Progress]{max: maxProgressHistory},
		trace:    feed[obs.Event]{max: maxTraceHistory},
	}
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// markRunning transitions queued→running; it reports false when the job
// was canceled while still queued (the worker must skip it).
func (j *Job) markRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	return true
}

// MarkRunning is markRunning for external dispatchers (a fleet
// coordinator granting a lease).
func (j *Job) MarkRunning() bool { return j.markRunning() }

// MarkQueued returns a running job to the queue — the lease-expiry
// requeue path. It is a no-op on terminal jobs.
func (j *Job) MarkQueued() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == JobRunning {
		j.state = JobQueued
	}
}

// Context exposes the job's cancellation context so external dispatchers
// can observe client cancellation (DELETE /v1/jobs/{id}) and propagate it
// to remote workers.
func (j *Job) Context() context.Context { return j.ctx }

// Traced reports whether the job records a cycle-level event trace.
// Traced jobs must execute in-process: their event stream cannot ride the
// fleet result wire.
func (j *Job) Traced() bool { return j.task.traced }

// RequestJSON returns the job's original submission body, the unit that
// ships to a fleet worker for remote execution.
func (j *Job) RequestJSON() []byte { return j.task.request() }

// FinalError returns the terminal error message — empty while the job is
// still open and for jobs that finished done. External dispatchers use it
// to journal the terminal transition they just drove through FinishRemote.
func (j *Job) FinalError() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errMsg
}

// resultField is what JobStatus's last field adds to the encoding of a
// status without a result, ahead of the payload.
const resultField = `,"result":`

// seal renders the body GET /v1/jobs/{id} serves once the job is terminal
// — byte for byte what json.NewEncoder(w).Encode(j.status(true)) would
// write for that state — and closes the progress history, so no later
// snapshot can make the rendering stale. A terminal job never changes, so
// this happens once per job instead of once per poll. It returns the view
// and the payload as it appears inside it (a sub-slice; the encoder
// compacts and HTML-escapes a raw payload, so this, not the caller's
// copy, is the form clients have always seen). Callers hand both to
// finish; Server.settle puts the result in the cache in between.
//
// A payload the encoder rejects yields a nil view: handleGet then encodes
// per request as it does for live jobs, with whatever that produces.
func (j *Job) seal(state JobState, payload []byte, errMsg string) (view, result []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.sealed = true
	st := j.statusLocked()
	st.State, st.Error = state, errMsg
	var head bytes.Buffer
	_ = json.NewEncoder(&head).Encode(st) // plain data: cannot fail
	if state != JobDone || len(payload) == 0 {
		return head.Bytes(), nil
	}
	// Result is JobStatus's last field: the full encoding is head with
	// `,"result":<payload>` spliced in before the closing "}\n".
	st.Result = payload
	buf := bytes.NewBuffer(make([]byte, 0, head.Len()+len(resultField)+len(payload)))
	if err := json.NewEncoder(buf).Encode(st); err != nil {
		return nil, payload
	}
	view = buf.Bytes()
	lo, hi := head.Len()-2+len(resultField), len(view)-2
	return view, view[lo:hi:hi]
}

// finish records the terminal state with the view seal rendered for it,
// and closes every subscriber stream. It reports whether this call
// performed the transition: a job reaches a terminal state exactly once,
// and only the transitioning caller may account it (Server.settle, which
// also fills the cache first).
func (j *Job) finish(state JobState, view, result []byte, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = state
	j.view = view
	j.result = result
	j.errMsg = errMsg
	j.progress.close()
	j.trace.close()
	close(j.done)
	return true
}

// terminate is seal + finish for the transitions that have no cache
// write to order in between.
func (j *Job) terminate(state JobState, payload []byte, errMsg string) bool {
	view, result := j.seal(state, payload, errMsg)
	return j.finish(state, view, result, errMsg)
}

// terminalView returns the rendered GET body of a terminal job, nil for a
// live one.
func (j *Job) terminalView() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.view
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// retain registers a search evaluation as a waiter on this job.
func (j *Job) retain() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.waiters++
}

// release drops one waiter. When the last waiter leaves a job that is
// still ephemeral (created for searches only, never claimed by a direct
// submission) and not yet terminal, the job is canceled: a canceled
// search must not leave its child evaluations burning workers.
func (j *Job) release() {
	j.mu.Lock()
	j.waiters--
	abandon := j.waiters == 0 && j.ephemeral && !j.state.Terminal()
	j.mu.Unlock()
	if abandon {
		j.Cancel()
	}
}

// claimShared clears the ephemeral flag: a direct client submission
// coalesced onto this job, so it must outlive any search that spawned it.
func (j *Job) claimShared() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.ephemeral = false
}

// Cancel requests cancellation: a queued job transitions to canceled
// immediately; a running job's context is canceled and the worker
// finalises it within the sim layer's poll bound.
func (j *Job) Cancel() {
	j.mu.Lock()
	queued := j.state == JobQueued
	j.mu.Unlock()
	if queued {
		j.terminate(JobCanceled, nil, "canceled while queued")
	}
	j.cancel()
}

// publish appends a progress snapshot to the /events feed. It returns the
// number of simulated cycles advanced since the previous snapshot, the
// delta the server folds into its cumulative cycle counter; snapshots
// arriving out of order (a stale worker's heartbeat racing a retry)
// contribute zero.
// A snapshot that arrives once the job is sealed (the same stale
// heartbeat, a late one after cancel) is dropped whole: what a finished
// job reports must not change between two reads.
func (j *Job) publish(p stats.Progress) uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.sealed {
		return 0
	}
	var delta uint64
	if p.Cycle > j.lastCycle {
		delta = p.Cycle - j.lastCycle
		j.lastCycle = p.Cycle
	}
	j.progress.publish([]stats.Progress{p})
	return delta
}

// publishTrace appends a drained batch of trace events to the /trace
// feed. The batch is copied once (the caller reuses its buffer); the end
// line carries the true totals whatever a slow subscriber missed.
func (j *Job) publishTrace(batch []obs.Event) {
	if len(batch) == 0 {
		return
	}
	cp := append([]obs.Event(nil), batch...)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.trace.publish(cp)
}

// setTraceTotals stamps the tracer's recording totals once the run has
// finished (the tracer itself is confined to the worker goroutine).
func (j *Job) setTraceTotals(total, dropped uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.traceTotal = total
	j.traceDropped = dropped
}

// traceTotals returns the stamped recording totals.
func (j *Job) traceTotals() (total, dropped uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.traceTotal, j.traceDropped
}

// JobStatus is the GET /v1/jobs/{id} response body.
type JobStatus struct {
	ID       string          `json:"id"`
	Kind     string          `json:"kind"`
	Key      string          `json:"key"`
	State    JobState        `json:"state"`
	Cached   bool            `json:"cached"`
	Traced   bool            `json:"traced,omitempty"`
	Error    string          `json:"error,omitempty"`
	Progress *stats.Progress `json:"progress,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// status snapshots the job for the API.
func (j *Job) status(includeResult bool) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.statusLocked()
	if includeResult && j.state == JobDone {
		st.Result = json.RawMessage(j.result)
	}
	return st
}

// statusLocked is status without the result; j.mu must be held.
func (j *Job) statusLocked() JobStatus {
	st := JobStatus{
		ID:     j.ID,
		Kind:   j.Kind,
		Key:    j.Key,
		State:  j.state,
		Cached: j.cacheHit,
		Traced: j.task.traced,
		Error:  j.errMsg,
	}
	if n := len(j.progress.log); n > 0 {
		p := j.progress.log[n-1]
		st.Progress = &p
	}
	return st
}
