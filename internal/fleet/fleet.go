// Package fleet promotes the single-process simulation service into a
// coordinator/worker fleet, carrying NoRD's decoupling insight up the
// stack: the paper's bypass ring keeps packets flowing while routers
// power off or fail, and the fleet keeps jobs flowing while workers die,
// wedge or partition.
//
// The coordinator owns the job queue and the content-addressed result
// cache (both live in internal/serve; the coordinator plugs in as the
// serve.Dispatcher). Workers register over HTTP, lease jobs with a TTL,
// heartbeat while executing, and report results; every wire payload is
// the same JSON the public API speaks.
//
// Robustness invariants:
//
//   - A lease that is not heartbeated within its TTL expires and the job
//     is requeued with exponential backoff + jitter; after MaxAttempts
//     grants the job is failed, never silently lost. The heartbeat, the
//     lease poll, the expiry sweep and the backoff all scale with the
//     one lease TTL (see Options).
//   - A job reaches a terminal state exactly once. Late or duplicate
//     reports (a stale lease racing a retry) account nothing: results
//     are deterministic and content-addressed, so a stale *success* is
//     accepted if the job is still open, while stale failures are
//     discarded — the active attempt decides.
//   - Client cancellation and per-job execution deadlines propagate to
//     workers through heartbeat responses and lease grants, riding the
//     sim layer's context-cancellation polling.
//   - With zero live workers the coordinator degrades to local
//     in-process execution on a pool of serve.Config.Workers with a
//     queue of serve.Config.QueueDepth, under serve.Config.JobDeadline,
//     so a fleet of one is exactly the single-process service.
package fleet

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Options tunes a Coordinator's lease machinery. The zero value selects
// production-shaped defaults. The settings a job runs under — its
// deadline, the queue bound and the local pool size — are the owning
// server's serve.Config, read through (*serve.Server).Config, so a job
// leased to a worker and one run on the fallback pool see the same
// values. Every other fleet timing is a fixed fraction of LeaseTTL:
//
//	heartbeat      TTL/3   (granted at registration)
//	lease poll     TTL/5   (a lease request parks at most this long; ≤ 30s)
//	worker TTL     2·TTL   (a worker not heard from this long is not live)
//	janitor sweep  TTL/4   (floored at 10ms)
//	requeue delay  TTL/40 · 2^(attempt−1), capped at TTL/2, +≤50% jitter
//
// so a test shrinks them all by shrinking LeaseTTL.
type Options struct {
	// LeaseTTL is how long a granted lease lives without a heartbeat
	// before the job is presumed abandoned and requeued (default 10s).
	LeaseTTL time.Duration
	// MaxAttempts bounds lease grants per job before it is failed
	// (default 4).
	MaxAttempts int
	// Journal, when non-nil, makes the coordinator crash-durable: job
	// submissions, lease grants, requeues and terminal transitions are
	// appended to it, and NewCoordinator replays its recovered state —
	// terminal jobs are rehydrated (done payloads from the result cache),
	// open jobs requeued. Open it with OpenJournal over the same directory
	// across restarts; the coordinator owns it from here and closes it in
	// Wait. Traced jobs and trace replays are not journaled: their value
	// is the live event stream, which cannot outlive the process.
	Journal *Journal
	// Seed drives the requeue jitter; 0 seeds from the clock.
	Seed int64
}

func (o *Options) fill() {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.Seed == 0 {
		o.Seed = time.Now().UnixNano()
	}
}

// maxPollWait caps the lease poll well below the worker transport's
// 60s response-header timeout, whatever the TTL.
const maxPollWait = 30 * time.Second

// The timings derived from LeaseTTL (see Options).
func (o *Options) heartbeat() time.Duration { return o.LeaseTTL / 3 }
func (o *Options) pollWait() time.Duration  { return min(o.LeaseTTL/5, maxPollWait) }
func (o *Options) workerTTL() time.Duration { return 2 * o.LeaseTTL }
func (o *Options) retryBase() time.Duration { return o.LeaseTTL / 40 }
func (o *Options) retryMax() time.Duration  { return o.LeaseTTL / 2 }
func (o *Options) janitorEvery() time.Duration {
	return max(o.LeaseTTL/4, 10*time.Millisecond)
}

// Backoff returns the attempt-indexed retry delay: base·2^(attempt-1)
// capped at max, plus up to 50% uniform jitter drawn from random (in
// [0, 1)). Jitter decorrelates retries — dead-worker requeues and
// worker reconnects that would otherwise thunder back in lockstep.
func Backoff(base, max time.Duration, attempt int, random float64) time.Duration {
	if base <= 0 {
		base = time.Millisecond
	}
	if max < base {
		max = base
	}
	if attempt < 1 {
		attempt = 1
	}
	shift := uint(attempt - 1)
	if shift > 30 {
		shift = 30
	}
	d := base << shift
	if d <= 0 || d > max {
		d = max
	}
	return d + time.Duration(random*float64(d)/2)
}

// lockedRand is a mutex-guarded rand.Rand: jitter draws come from
// multiple goroutines (janitor, handlers, worker slots).
type lockedRand struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newLockedRand(seed int64) *lockedRand {
	return &lockedRand{rng: rand.New(rand.NewSource(seed))}
}

func (l *lockedRand) Float64() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rng.Float64()
}

// leaseID renders a lease identity; epochs are coordinator-unique.
func leaseID(epoch uint64) string { return fmt.Sprintf("L%06d", epoch) }
