package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"nord/internal/serve"
	"nord/internal/sim"
	"nord/internal/stats"
)

// errLeaseLost is the cancellation cause when the coordinator reports
// the worker's lease superseded: the run is abandoned and no result is
// reported (another worker owns the job now).
var errLeaseLost = errors.New("fleet: lease lost")

// errClientCanceled is the cancellation cause when a heartbeat reports
// client-requested cancellation: the run stops and a canceled outcome is
// reported.
var errClientCanceled = errors.New("fleet: job canceled by client")

// reconnectBase and reconnectMax shape the jittered backoff a worker
// uses while the coordinator is unreachable (and between attempts to
// post a result): reconnectBase·2^(attempt−1), capped at reconnectMax.
const (
	reconnectBase = 200 * time.Millisecond
	reconnectMax  = 10 * time.Second
)

// WorkerOptions configures a fleet worker. It holds no job settings: a
// leased job runs at sim.RunOptions' default poll and progress cadence,
// as a job on the coordinator's own pool does, under the deadline its
// lease grant carries; cancellation and progress ride the heartbeats.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// ID names the worker in leases and logs; required.
	ID string
	// Slots is the number of jobs executed in parallel (default 1).
	Slots int
	// Client overrides the HTTP client — the chaos harness injects
	// failing transports here. The default is a dedicated transport with
	// explicit dial, TLS-handshake and response-header timeouts (see
	// newFleetTransport); there is no client-level global timeout because
	// lease long-polls and result reports carry their own context
	// deadlines.
	Client *http.Client
	// Seed drives the reconnect jitter; 0 seeds from the clock.
	Seed int64
	// Logf, when non-nil, receives worker lifecycle lines.
	Logf func(format string, args ...any)
}

// Worker executes leased jobs against a coordinator. It is resilient by
// construction: coordinator restarts are survived with jittered
// reconnect + re-registration, lost leases abandon the run promptly, and
// a graceful stop gives unfinished jobs back to the queue.
type Worker struct {
	o      WorkerOptions
	client *http.Client
	rng    *lockedRand

	mu  sync.Mutex
	reg RegisterResponse // fleet timings from the last successful registration
}

// newFleetTransport builds the worker's default HTTP transport. Unlike a
// bare &http.Client{} (which shares http.DefaultTransport and hangs
// forever on a TCP-accepting-but-dead coordinator), every phase of a
// request is bounded: dialing, the TLS handshake, and the wait for
// response headers. Lease long-polls park server-side for at most
// maxPollWait, so the response-header timeout stays above it.
func newFleetTransport() *http.Transport {
	return &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		TLSHandshakeTimeout:   5 * time.Second,
		ResponseHeaderTimeout: 60 * time.Second,
		ExpectContinueTimeout: 1 * time.Second,
		MaxIdleConnsPerHost:   4,
		IdleConnTimeout:       90 * time.Second,
	}
}

// NewWorker validates opts and builds a Worker.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Coordinator == "" {
		return nil, fmt.Errorf("fleet: worker needs a coordinator URL")
	}
	if opts.ID == "" {
		return nil, fmt.Errorf("fleet: worker needs an ID")
	}
	opts.Coordinator = strings.TrimRight(opts.Coordinator, "/")
	if opts.Slots <= 0 {
		opts.Slots = 1
	}
	if opts.Seed == 0 {
		opts.Seed = time.Now().UnixNano()
	}
	w := &Worker{o: opts, client: opts.Client, rng: newLockedRand(opts.Seed)}
	if w.client == nil {
		w.client = &http.Client{Transport: newFleetTransport()}
	}
	return w, nil
}

func (w *Worker) logf(format string, args ...any) {
	if w.o.Logf != nil {
		w.o.Logf(format, args...)
	}
}

// Run registers and executes jobs until ctx is canceled. On shutdown,
// in-flight jobs are given back to the coordinator (best effort) so they
// requeue immediately instead of waiting out their lease TTL.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.registerLoop(ctx); err != nil {
		return err
	}
	var wg sync.WaitGroup
	for i := 0; i < w.o.Slots; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			w.slotLoop(ctx, slot)
		}(i)
	}
	wg.Wait()
	w.unregister()
	return ctx.Err()
}

// registerLoop registers with jittered backoff until success or ctx
// cancellation.
func (w *Worker) registerLoop(ctx context.Context) error {
	for attempt := 1; ; attempt++ {
		if err := w.register(ctx); err == nil {
			w.logf("worker %s: registered with %s", w.o.ID, w.o.Coordinator)
			return nil
		} else if ctx.Err() != nil {
			return ctx.Err()
		} else {
			d := Backoff(reconnectBase, reconnectMax, attempt, w.rng.Float64())
			w.logf("worker %s: register failed (%v), retrying in %s", w.o.ID, err, d)
			if !sleepCtx(ctx, d) {
				return ctx.Err()
			}
		}
	}
}

func (w *Worker) register(ctx context.Context) error {
	rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	var resp RegisterResponse
	if err := w.post(rctx, "/fleet/v1/register", RegisterRequest{WorkerID: w.o.ID}, &resp); err != nil {
		return err
	}
	w.mu.Lock()
	w.reg = resp
	w.mu.Unlock()
	return nil
}

// unregister tells the coordinator this worker is gone (best effort,
// detached context: the worker's own context is already canceled).
func (w *Worker) unregister() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = w.post(ctx, "/fleet/v1/unregister", RegisterRequest{WorkerID: w.o.ID}, nil)
}

func (w *Worker) timings() RegisterResponse {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.reg
}

// slotLoop leases and executes jobs until ctx is canceled. Transport
// failures back off with jitter and re-register (a restarted coordinator
// has lost the registration table).
func (w *Worker) slotLoop(ctx context.Context, slot int) {
	fails := 0
	for ctx.Err() == nil {
		grant, ok, err := w.lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			fails++
			d := Backoff(reconnectBase, reconnectMax, fails, w.rng.Float64())
			w.logf("worker %s[%d]: lease failed (%v), backing off %s", w.o.ID, slot, err, d)
			if !sleepCtx(ctx, d) {
				return
			}
			// Best effort; the next lease call re-proves liveness anyway.
			_ = w.register(ctx)
			continue
		}
		fails = 0
		if !ok {
			continue // empty poll
		}
		w.execute(ctx, grant)
	}
}

func (w *Worker) lease(ctx context.Context) (*LeaseGrant, bool, error) {
	t := w.timings()
	wait := time.Duration(t.PollWaitMs) * time.Millisecond
	if wait <= 0 {
		wait = 2 * time.Second
	}
	rctx, cancel := context.WithTimeout(ctx, wait+5*time.Second)
	defer cancel()
	req, err := w.newRequest(rctx, "/fleet/v1/lease", LeaseRequest{WorkerID: w.o.ID, WaitMs: wait.Milliseconds()})
	if err != nil {
		return nil, false, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		io.Copy(io.Discard, resp.Body)
		return nil, false, nil
	case http.StatusOK:
		var grant LeaseGrant
		if err := json.NewDecoder(resp.Body).Decode(&grant); err != nil {
			return nil, false, err
		}
		return &grant, true, nil
	default:
		io.Copy(io.Discard, resp.Body)
		return nil, false, fmt.Errorf("lease: HTTP %d", resp.StatusCode)
	}
}

// execute runs one leased job: heartbeats in the background, the sim on
// this goroutine, and a result report (or give-back) at the end. The
// report is the result's only route to the coordinator, whose settle
// writes it to the cache.
func (w *Worker) execute(ctx context.Context, grant *LeaseGrant) {
	var req serve.JobRequest
	if err := json.Unmarshal(grant.Request, &req); err != nil {
		w.report(grant, &serve.RemoteOutcome{Error: "worker could not decode job request: " + err.Error()}, false)
		return
	}

	runCtx, cancelCause := context.WithCancelCause(ctx)
	defer cancelCause(nil)
	if grant.DeadlineMs > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeoutCause(runCtx,
			time.Duration(grant.DeadlineMs)*time.Millisecond, serve.ErrJobDeadline)
		defer cancel()
	}

	// Latest progress snapshot, shipped on heartbeats; guarded because
	// the sim goroutine writes it and the heartbeat goroutine reads it.
	var (
		progMu   sync.Mutex
		latest   *stats.Progress
		sentCyc  uint64
		hbDone   = make(chan struct{})
		hbExited = make(chan struct{})
	)
	t := w.timings()
	hbEvery := time.Duration(t.HeartbeatMs) * time.Millisecond
	if hbEvery <= 0 {
		hbEvery = time.Second
	}
	go func() {
		defer close(hbExited)
		tick := time.NewTicker(hbEvery)
		defer tick.Stop()
		for {
			select {
			case <-hbDone:
				return
			case <-runCtx.Done():
				return
			case <-tick.C:
			}
			hb := HeartbeatRequest{WorkerID: w.o.ID, JobID: grant.JobID, Lease: grant.Lease}
			progMu.Lock()
			if latest != nil && latest.Cycle > sentCyc {
				p := *latest
				hb.Progress = &p
				sentCyc = latest.Cycle
			}
			progMu.Unlock()
			hctx, cancel := context.WithTimeout(context.Background(), hbEvery+2*time.Second)
			var resp HeartbeatResponse
			err := w.post(hctx, "/fleet/v1/heartbeat", hb, &resp)
			cancel()
			if err != nil {
				// Unreachable coordinator: keep simulating — the lease
				// may expire server-side, in which case the result
				// report will come back stale and be reconciled there.
				continue
			}
			switch resp.Status {
			case StatusLost:
				cancelCause(errLeaseLost)
				return
			case StatusCanceled:
				cancelCause(errClientCanceled)
				return
			}
		}
	}()

	payload, meta, err := serve.ExecuteRequest(runCtx, &req, sim.RunOptions{
		Progress: func(p stats.Progress) {
			progMu.Lock()
			latest = &p
			progMu.Unlock()
		},
	})
	close(hbDone)
	<-hbExited

	switch {
	case err == nil:
		w.report(grant, &serve.RemoteOutcome{Payload: payload, Meta: meta}, false)
	case errors.Is(err, errLeaseLost):
		// Another attempt owns the job; drop the run silently.
		w.logf("worker %s: lease %s lost, abandoning %s", w.o.ID, grant.Lease, grant.JobID)
	case errors.Is(err, errClientCanceled):
		w.report(grant, &serve.RemoteOutcome{Canceled: true, Error: err.Error()}, false)
	case errors.Is(err, serve.ErrJobDeadline):
		w.report(grant, &serve.RemoteOutcome{Error: err.Error()}, false)
	case ctx.Err() != nil:
		// Worker shutting down mid-run: give the job back so it requeues
		// without waiting out the lease TTL.
		w.report(grant, &serve.RemoteOutcome{}, true)
	default:
		w.report(grant, &serve.RemoteOutcome{Error: err.Error()}, false)
	}
}

// report posts the result with bounded retries; a detached context keeps
// the give-back path working after the worker's own context is canceled.
func (w *Worker) report(grant *LeaseGrant, out *serve.RemoteOutcome, requeue bool) {
	req := ResultRequest{WorkerID: w.o.ID, JobID: grant.JobID, Lease: grant.Lease, Requeue: requeue, Outcome: *out}
	for attempt := 1; attempt <= 3; attempt++ {
		rctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		var resp ResultResponse
		err := w.post(rctx, "/fleet/v1/result", req, &resp)
		cancel()
		if err == nil {
			if resp.Status == StatusStale || resp.Status == StatusUnknown {
				w.logf("worker %s: result for %s %s (lease %s)", w.o.ID, grant.JobID, resp.Status, grant.Lease)
			}
			return
		}
		time.Sleep(Backoff(reconnectBase, reconnectMax, attempt, w.rng.Float64()))
	}
	w.logf("worker %s: could not report result for %s; lease will expire", w.o.ID, grant.JobID)
}

func (w *Worker) newRequest(ctx context.Context, path string, body any) (*http.Request, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.o.Coordinator+path, bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

// post sends a JSON request and decodes a JSON response into out (when
// non-nil). Non-2xx statuses are errors.
func (w *Worker) post(ctx context.Context, path string, body, out any) error {
	req, err := w.newRequest(ctx, path, body)
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// sleepCtx sleeps d or until ctx cancellation; it reports whether the
// full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
