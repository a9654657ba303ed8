package serve

import (
	"context"
	"io"
)

// Dispatcher abstracts where submitted jobs execute. The in-process
// Scheduler is the local implementation; a fleet coordinator
// (internal/fleet) implements the same contract by leasing jobs to
// remote workers, falling back to local execution when none are
// registered. The Server is agnostic: it validates, indexes and
// finalises jobs; the dispatcher decides who runs them.
type Dispatcher interface {
	// Submit enqueues a job for execution without blocking. ErrQueueFull
	// reports backpressure (HTTP 429), ErrDraining a closed dispatcher
	// (HTTP 503).
	Submit(j *Job) error
	// QueueDepth returns the number of jobs waiting to execute.
	QueueDepth() int
	// Workers returns the current execution capacity (pool size locally,
	// live registered workers for a fleet).
	Workers() int
	// Busy returns the number of jobs currently executing.
	Busy() int
	// Close stops intake; already-accepted jobs still run. Idempotent.
	Close()
	// Wait blocks until every accepted job has reached a terminal state
	// (Close must have been called) or ctx expires.
	Wait(ctx context.Context) error
}

// PromWriter is implemented by dispatchers that export their own metric
// series; the server appends them to the /metrics exposition.
type PromWriter interface {
	WritePromTo(w io.Writer)
}

// HealthNoter is implemented by dispatchers that can report degraded-but-
// alive conditions (a fleet with zero live workers running on its local
// fallback, a wedged journal). /healthz
// surfaces the notes with status "degraded" while keeping HTTP 200: the
// process is serving, just limping — distinct from 503 draining, which
// tells load balancers to stop routing here.
type HealthNoter interface {
	HealthNotes() []string
}
