package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
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

// WorkerOptions configures a fleet worker.
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
	// CacheTier is the base URL of the shared result cache
	// (GET/PUT /v1/cache/{key}). Empty defaults to the Coordinator URL —
	// the coordinator fronts its own content-addressed cache — and "none"
	// disables the tier entirely. The tier is an optimisation, never a
	// dependency: any tier error falls back to local computation and a
	// job is never failed because the cache was unreachable.
	CacheTier string
	// ReconnectBase and ReconnectMax shape the jittered backoff used
	// when the coordinator is unreachable (defaults 200ms and 10s).
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
	// CheckEvery and ProgressEvery tune the sim layer (defaults as in
	// serve.Config).
	CheckEvery    int
	ProgressEvery int
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

	// Cache tier telemetry (tests read these; per-execution deltas ride
	// result reports to the coordinator's metrics).
	remoteHits    atomic.Uint64
	remoteMisses  atomic.Uint64
	remotePuts    atomic.Uint64
	putRetries    atomic.Uint64
	tierErrors    atomic.Uint64
	simsPerformed atomic.Uint64 // executions that actually ran the simulator
}

// RemoteCacheStats reports the worker's cumulative cache tier telemetry:
// payloads served without simulating (hits), probes that missed, results
// written back, write-back retries, tier errors survived, and the number
// of leased executions that actually ran the simulator.
func (w *Worker) RemoteCacheStats() (hits, misses, puts, retries, errs, sims uint64) {
	return w.remoteHits.Load(), w.remoteMisses.Load(), w.remotePuts.Load(),
		w.putRetries.Load(), w.tierErrors.Load(), w.simsPerformed.Load()
}

// newFleetTransport builds the worker's default HTTP transport. Unlike a
// bare &http.Client{} (which shares http.DefaultTransport and hangs
// forever on a TCP-accepting-but-dead coordinator), every phase of a
// request is bounded: dialing, the TLS handshake, and the wait for
// response headers. Lease long-polls park server-side for PollWait, so
// the response-header timeout stays comfortably above it.
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
	if opts.ReconnectBase <= 0 {
		opts.ReconnectBase = 200 * time.Millisecond
	}
	if opts.ReconnectMax <= 0 {
		opts.ReconnectMax = 10 * time.Second
	}
	if opts.Seed == 0 {
		opts.Seed = time.Now().UnixNano()
	}
	switch opts.CacheTier {
	case "":
		opts.CacheTier = opts.Coordinator
	case "none":
		opts.CacheTier = ""
	default:
		opts.CacheTier = strings.TrimRight(opts.CacheTier, "/")
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
			d := Backoff(w.o.ReconnectBase, w.o.ReconnectMax, attempt, w.rng.Float64())
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
	if err := w.post(rctx, "/fleet/v1/register", RegisterRequest{WorkerID: w.o.ID, Slots: w.o.Slots}, &resp); err != nil {
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
			d := Backoff(w.o.ReconnectBase, w.o.ReconnectMax, fails, w.rng.Float64())
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

// execute runs one leased job: a shared-cache probe first (a hit reports
// the payload with zero sim work), then heartbeats in the background, the
// sim on this goroutine, a cache write-back, and a result report (or
// give-back) at the end.
func (w *Worker) execute(ctx context.Context, grant *LeaseGrant) {
	var req serve.JobRequest
	if err := json.Unmarshal(grant.Request, &req); err != nil {
		w.report(grant, &serve.RemoteOutcome{Error: "worker could not decode job request: " + err.Error()}, false, 0, 0)
		return
	}

	// Some other process may already have paid for this configuration:
	// check the shared tier before burning cycles. Any tier failure is a
	// miss — compute locally, never fail the job over its cache.
	var tierErrs int
	if w.o.CacheTier != "" && grant.Key != "" {
		payload, ok, errs := w.cacheGet(ctx, grant.Key)
		tierErrs += errs
		if ok {
			w.report(grant, &serve.RemoteOutcome{Payload: payload, FromCache: true}, false, 0, tierErrs)
			return
		}
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

	w.simsPerformed.Add(1)
	payload, meta, err := serve.ExecuteRequest(runCtx, &req, sim.RunOptions{
		CheckEvery:    w.o.CheckEvery,
		ProgressEvery: w.o.ProgressEvery,
		Progress: func(p stats.Progress) {
			progMu.Lock()
			latest = &p
			progMu.Unlock()
		},
	})
	// Write the result back to the shared tier before stopping heartbeats:
	// the retries' backoff can outlast the lease TTL, and an un-heartbeated
	// lease would expire mid-write-back.
	var putRetries int
	if err == nil && w.o.CacheTier != "" && grant.Key != "" {
		r, errs := w.cachePut(grant.Key, payload)
		putRetries = r
		tierErrs += errs
	}
	close(hbDone)
	<-hbExited

	switch {
	case err == nil:
		var m *serve.RunMeta
		if meta != nil {
			m = meta
		}
		w.report(grant, &serve.RemoteOutcome{Payload: payload, Meta: m}, false, putRetries, tierErrs)
	case errors.Is(err, errLeaseLost):
		// Another attempt owns the job; drop the run silently.
		w.logf("worker %s: lease %s lost, abandoning %s", w.o.ID, grant.Lease, grant.JobID)
	case errors.Is(err, errClientCanceled):
		w.report(grant, &serve.RemoteOutcome{Canceled: true, Error: err.Error()}, false, 0, tierErrs)
	case errors.Is(err, serve.ErrJobDeadline):
		w.report(grant, &serve.RemoteOutcome{Error: err.Error()}, false, 0, tierErrs)
	case ctx.Err() != nil:
		// Worker shutting down mid-run: give the job back so it requeues
		// without waiting out the lease TTL.
		w.report(grant, &serve.RemoteOutcome{}, true, 0, tierErrs)
	default:
		w.report(grant, &serve.RemoteOutcome{Error: err.Error()}, false, 0, tierErrs)
	}
}

// cacheGet probes the shared cache tier for key. The payload's digest
// (carried in the response header, which is required) is validated end
// to end: a corrupted transfer reads as a miss, never as a result. Tier
// errors are counted and swallowed — the caller simulates locally.
func (w *Worker) cacheGet(ctx context.Context, key string) (payload []byte, ok bool, errs int) {
	rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, w.o.CacheTier+"/v1/cache/"+key, nil)
	if err != nil {
		w.tierErrors.Add(1)
		return nil, false, 1
	}
	resp, err := w.client.Do(req)
	if err != nil {
		w.tierErrors.Add(1)
		return nil, false, 1
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		w.remoteMisses.Add(1)
		return nil, false, 0
	default:
		io.Copy(io.Discard, resp.Body)
		w.tierErrors.Add(1)
		return nil, false, 1
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		w.tierErrors.Add(1)
		return nil, false, 1
	}
	// A tier (or a proxy in front of it) that drops the digest header has
	// vouched for nothing: that is a tier error too, never a hit.
	if sum := sha256.Sum256(body); hex.EncodeToString(sum[:]) != resp.Header.Get(serve.SumHeader) {
		w.tierErrors.Add(1)
		return nil, false, 1
	}
	w.remoteHits.Add(1)
	return body, true, 0
}

// cachePutAttempts bounds write-back attempts per result.
const cachePutAttempts = 4

// cachePut writes a computed result back to the shared tier with up to
// cachePutAttempts tries under capped exponential backoff + jitter. It
// runs on a detached context (the result exists and should be shared even
// while the worker shuts down) and never propagates failure: a job is
// never failed because its cache write-back was. 4xx rejections are not
// retried — the tier told us the payload itself is unacceptable, and
// resending the same bytes cannot change its mind.
func (w *Worker) cachePut(key string, payload []byte) (retries, errs int) {
	sum := sha256.Sum256(payload)
	digest := hex.EncodeToString(sum[:])
	for attempt := 1; ; attempt++ {
		rctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		status, err := w.doPut(rctx, key, payload, digest)
		cancel()
		switch {
		case err == nil && status < 300:
			w.remotePuts.Add(1)
			return retries, errs
		case err == nil && status >= 400 && status < 500:
			w.tierErrors.Add(1)
			return retries, errs + 1
		}
		w.tierErrors.Add(1)
		errs++
		if attempt >= cachePutAttempts {
			w.logf("worker %s: cache write-back for %s abandoned after %d attempts", w.o.ID, key, attempt)
			return retries, errs
		}
		retries++
		w.putRetries.Add(1)
		time.Sleep(Backoff(w.o.ReconnectBase, w.o.ReconnectMax, attempt, w.rng.Float64()))
	}
}

func (w *Worker) doPut(ctx context.Context, key string, payload []byte, digest string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, w.o.CacheTier+"/v1/cache/"+key, bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	req.Header.Set(serve.SumHeader, digest)
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// report posts the result with bounded retries; a detached context keeps
// the give-back path working after the worker's own context is canceled.
// putRetries and tierErrs carry this execution's cache tier friction for
// the coordinator's metrics and health reporting.
func (w *Worker) report(grant *LeaseGrant, out *serve.RemoteOutcome, requeue bool, putRetries, tierErrs int) {
	req := ResultRequest{
		WorkerID: w.o.ID, JobID: grant.JobID, Lease: grant.Lease, Requeue: requeue, Outcome: *out,
		CachePutRetries: putRetries, CacheTierErrors: tierErrs,
	}
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
		time.Sleep(Backoff(w.o.ReconnectBase, w.o.ReconnectMax, attempt, w.rng.Float64()))
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
