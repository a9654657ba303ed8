package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"nord/internal/serve"
)

// lease is one worker's exclusive claim on a job.
type lease struct {
	id      string
	worker  string
	expires time.Time
}

// fleetJob is the coordinator's per-job lease state machine:
//
//	queued --grant--> leased --result--> terminal
//	  ^                  |
//	  +--expiry/giveback-+   (attempt++, backoff; MaxAttempts → failed)
type fleetJob struct {
	j       *serve.Job
	attempt int       // lease grants so far
	readyAt time.Time // earliest next grant (requeue backoff)
	lease   *lease    // nil while queued
}

// workerState tracks registration liveness.
type workerState struct {
	id       string
	lastSeen time.Time
}

// Coordinator implements serve.Dispatcher by leasing jobs to registered
// workers over HTTP, falling back to an in-process pool when none are
// live. Construct it through serve.Config.Dispatcher so its execution
// callbacks bind to the owning server:
//
//	var coord *fleet.Coordinator
//	srv, err := serve.New(serve.Config{
//		Dispatcher: func(s *serve.Server) serve.Dispatcher {
//			coord = fleet.NewCoordinator(s, opts)
//			return coord
//		},
//	})
//	mux.Handle("/fleet/", coord.Handler())
type Coordinator struct {
	opts    Options
	srv     *serve.Server
	cfg     serve.Config // srv's filled settings: deadline, queue bound, pool size
	local   *serve.Scheduler
	rng     *lockedRand
	journal *Journal // nil when the coordinator is not crash-durable

	mu      sync.Mutex
	closed  bool
	epoch   uint64
	jobs    map[string]*fleetJob // active fleet jobs by serve job ID
	queue   []*fleetJob          // grant order; holds queued (unleased) jobs
	workers map[string]*workerState
	wake    chan struct{} // closed+replaced to rouse parked lease polls

	stopJanitor     chan struct{}
	stopOnce        sync.Once
	localCloseOne   sync.Once
	journalCloseOne sync.Once

	// Counters exposed at /metrics (nord_fleet_*).
	leaseExpiries    atomic.Uint64
	requeues         atomic.Uint64
	staleResults     atomic.Uint64
	staleAccepted    atomic.Uint64
	localJobs        atomic.Uint64
	retriesExhausted atomic.Uint64
	leasesGranted    atomic.Uint64

	// Recovery accounting: jobs restored already-terminal from the journal,
	// jobs requeued for re-execution, and journaled jobs whose records no
	// longer restore (request schema drift — skipped, never crash the boot).
	journalReplayed atomic.Uint64
	journalRequeued atomic.Uint64
	journalSkipped  atomic.Uint64
}

// NewCoordinator builds a coordinator dispatching for srv. When
// opts.Journal is set it first replays the journal's recovered state —
// terminal jobs are rehydrated (done payloads out of the result cache),
// open jobs requeued in their original arrival order — so a coordinator
// killed mid-fleet restarts with every accepted job still reaching a
// terminal state exactly once. It starts the lease-expiry janitor once
// recovery is complete.
func NewCoordinator(srv *serve.Server, opts Options) *Coordinator {
	opts.fill()
	c := &Coordinator{
		opts:        opts,
		srv:         srv,
		cfg:         srv.Config(),
		rng:         newLockedRand(opts.Seed),
		journal:     opts.Journal,
		jobs:        map[string]*fleetJob{},
		workers:     map[string]*workerState{},
		wake:        make(chan struct{}),
		stopJanitor: make(chan struct{}),
	}
	// The local fallback pool journals the terminal transitions it drives:
	// fleet jobs stolen onto it during a zero-worker window must not replay
	// as open after a crash that already answered them.
	c.local = serve.NewScheduler(c.cfg.Workers, c.cfg.QueueDepth, func(j *serve.Job) {
		srv.Exec(j)
		c.journalTerm(j)
	})
	// Lease epochs resume above everything ever journaled, so a stale
	// pre-crash lease ID can never collide with a fresh post-restart grant
	// (the stale-result reconciliation path depends on the distinction).
	c.epoch = c.journal.Epoch()
	c.recover()
	go c.janitor()
	return c
}

// epochSnapshot reads the current lease epoch; tests use it to pin the
// continuity guarantee across restarts.
func (c *Coordinator) epochSnapshot() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// recover replays the journal's materialized state into the fleet queue
// and the serve layer. Records that no longer restore (request schema
// drift across versions) are counted and skipped — recovery must never
// prevent the coordinator from booting.
func (c *Coordinator) recover() {
	for i := range c.journal.Recovered() {
		rec := &c.journal.Recovered()[i]
		if rec.State != JobStateOpen {
			err := c.srv.RestoreTerminal(rec.ID, rec.Req, serve.JobState(rec.State), rec.Err)
			switch {
			case err == nil:
				c.journalReplayed.Add(1)
				continue
			case !errors.Is(err, serve.ErrNoCachedResult):
				c.journalSkipped.Add(1)
				continue
			}
			// Done, but the payload is gone (cache evicted with no spill, or
			// the spill was corrupt and quarantined). The run is
			// deterministic: requeue and recompute the identical bytes.
		}
		j, err := c.srv.RestoreJob(rec.ID, rec.Req)
		if err != nil {
			c.journalSkipped.Add(1)
			continue
		}
		c.journalRequeued.Add(1)
		fj := &fleetJob{j: j, attempt: rec.Attempt}
		c.jobs[j.ID] = fj
		c.queue = append(c.queue, fj)
	}
}

// localOnly reports whether a job cannot ship to a worker: traced jobs and
// trace replays reference coordinator-local files and event streams that
// cannot ride the result wire. Such jobs run in-process and are not
// journaled (see journalSubmit).
func localOnly(j *serve.Job) bool { return j.Traced() || j.Kind == "trace" }

// Submit implements serve.Dispatcher. Jobs that cannot ship (localOnly)
// always execute in-process; everything else joins
// the fleet queue unless no worker is live, in which case it degrades
// directly to local execution. Either queue holds at most the server's
// QueueDepth jobs not yet running, as the local Scheduler's does.
func (c *Coordinator) Submit(j *serve.Job) error {
	if localOnly(j) {
		return c.submitLocal(j)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return serve.ErrDraining
	}
	if c.liveWorkersLocked(time.Now()) == 0 {
		c.mu.Unlock()
		return c.submitLocal(j)
	}
	if len(c.queue) >= c.cfg.QueueDepth {
		c.mu.Unlock()
		return serve.ErrQueueFull
	}
	// Journal before the job becomes grantable: a crash after this line
	// replays the job as open and requeues it, never loses it.
	c.journalSubmit(j)
	fj := &fleetJob{j: j}
	c.jobs[j.ID] = fj
	c.queue = append(c.queue, fj)
	c.wakeLocked()
	c.mu.Unlock()
	return nil
}

func (c *Coordinator) submitLocal(j *serve.Job) error {
	c.journalSubmit(j)
	if err := c.local.Submit(j); err != nil {
		// The client sees this rejection (429/503); close out the journal
		// entry so a restart does not resurrect a job that never ran.
		if c.journal != nil && !localOnly(j) {
			c.journal.Terminal(j.ID, string(serve.JobCanceled), "rejected at submit: "+err.Error())
		}
		return err
	}
	c.localJobs.Add(1)
	return nil
}

// journalSubmit records a job's acceptance. Traced jobs and trace replays
// are not journaled: their value is the live event stream, which cannot
// be reconstructed after the process dies (the deterministic payload
// could be, but nobody is left listening).
func (c *Coordinator) journalSubmit(j *serve.Job) {
	if localOnly(j) {
		return
	}
	c.journal.Submit(j.ID, j.Key, j.RequestJSON())
}

// journalTerm records the terminal transition the caller just drove
// through FinishRemote/DropCanceled/Exec. It reads the state off the job
// rather than trusting the caller: the exactly-once finish may have been
// won by a different path (a stale success racing a retry), and the
// journal must record what the client will actually see.
func (c *Coordinator) journalTerm(j *serve.Job) {
	if c.journal == nil || localOnly(j) {
		return
	}
	st := j.State()
	if !st.Terminal() {
		return
	}
	c.journal.Terminal(j.ID, string(st), j.FinalError())
}

// wakeLocked rouses every parked lease poll; c.mu must be held.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

func (c *Coordinator) liveWorkersLocked(now time.Time) int {
	n := 0
	for _, w := range c.workers {
		if now.Sub(w.lastSeen) <= c.opts.workerTTL() {
			n++
		}
	}
	return n
}

func (c *Coordinator) touchWorkerLocked(id string, now time.Time) {
	if w, ok := c.workers[id]; ok {
		w.lastSeen = now
	} else {
		c.workers[id] = &workerState{id: id, lastSeen: now}
	}
}

// QueueDepth implements serve.Dispatcher: fleet-queued plus local-queued.
func (c *Coordinator) QueueDepth() int {
	c.mu.Lock()
	n := len(c.queue)
	c.mu.Unlock()
	return n + c.local.QueueDepth()
}

// Workers implements serve.Dispatcher: the local fallback pool plus the
// live registered workers. The pool counts even while workers are live:
// it runs the jobs that cannot ship (localOnly).
func (c *Coordinator) Workers() int { return c.cfg.Workers + c.liveWorkers() }

// liveWorkers counts the registered workers heard from within the
// liveness window.
func (c *Coordinator) liveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveWorkersLocked(time.Now())
}

// Busy implements serve.Dispatcher: active leases plus busy local
// fallback workers.
func (c *Coordinator) Busy() int {
	c.mu.Lock()
	leased := len(c.jobs) - len(c.queue)
	c.mu.Unlock()
	return leased + c.local.Busy()
}

// Close implements serve.Dispatcher: stop accepting new jobs. Leased and
// queued jobs still run to a terminal state (Wait drains them).
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}

// Wait implements serve.Dispatcher: block until every accepted job is
// terminal — fleet jobs drain through workers (or expire onto the local
// pool), then the local pool itself is closed and drained.
func (c *Coordinator) Wait(ctx context.Context) error {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		c.mu.Lock()
		empty := len(c.jobs) == 0
		c.mu.Unlock()
		if empty {
			break
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
	c.localCloseOne.Do(c.local.Close)
	if err := c.local.Wait(ctx); err != nil {
		return err
	}
	c.stopOnce.Do(func() { close(c.stopJanitor) })
	// Every accepted job is terminal; compact and release the journal so
	// the next process opens a snapshot instead of a long log.
	c.journalCloseOne.Do(func() { _ = c.journal.Close() })
	return nil
}

// HealthNotes implements serve.HealthNoter: the degraded-but-alive
// conditions /healthz reports with HTTP 200 and status "degraded". Each
// note leads with a stable machine-greppable token.
func (c *Coordinator) HealthNotes() []string {
	var notes []string
	if c.liveWorkers() == 0 {
		notes = append(notes, "no_live_workers: jobs execute on the coordinator's local fallback pool")
	}
	if c.journal.Broken() {
		notes = append(notes, "journal_degraded: a journal write failed; jobs still run but are no longer crash-durable")
	}
	return notes
}

// ---- worker-facing protocol ----

// Handler returns the /fleet/v1/* endpoints; mount it alongside the
// server's public API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fleet/v1/register", c.handleRegister)
	mux.HandleFunc("POST /fleet/v1/unregister", c.handleUnregister)
	mux.HandleFunc("POST /fleet/v1/lease", c.handleLease)
	mux.HandleFunc("POST /fleet/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /fleet/v1/result", c.handleResult)
	return mux
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	if err := dec.Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.WorkerID == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "worker_id required"})
		return
	}
	c.mu.Lock()
	c.touchWorkerLocked(req.WorkerID, time.Now())
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, RegisterResponse{
		HeartbeatMs: c.opts.heartbeat().Milliseconds(),
		PollWaitMs:  c.opts.pollWait().Milliseconds(),
	})
}

func (c *Coordinator) handleUnregister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.mu.Lock()
	delete(c.workers, req.WorkerID)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{"status": StatusOK})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.WorkerID == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "worker_id required"})
		return
	}
	wait := time.Duration(req.WaitMs) * time.Millisecond
	if wait < 0 {
		wait = 0
	}
	if wait > c.opts.pollWait() {
		wait = c.opts.pollWait()
	}
	if grant, ok := c.grantLease(r.Context(), req.WorkerID, wait); ok {
		writeJSON(w, http.StatusOK, grant)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// grantLease pops the first ready job and leases it to workerID, parking
// up to wait for one to appear.
func (c *Coordinator) grantLease(ctx context.Context, workerID string, wait time.Duration) (*LeaseGrant, bool) {
	deadline := time.Now().Add(wait)
	for {
		now := time.Now()
		c.mu.Lock()
		c.touchWorkerLocked(workerID, now)
		fj, drop, nextReady := c.popReadyLocked(now)
		var grant *LeaseGrant
		if fj != nil {
			if grant = c.leaseLocked(fj, workerID, now); grant == nil {
				// Canceled between queue and grant; reaped from the maps
				// in leaseLocked, finalised below with the other drops.
				drop = append(drop, fj)
			}
		}
		wake := c.wake
		c.mu.Unlock()
		// Finalise canceled-while-queued jobs outside the lock: serve
		// callbacks take s.mu, and s.mu → c.mu is the established order
		// (handleSubmit holds s.mu across Submit).
		for _, d := range drop {
			c.srv.DropCanceled(d.j)
			c.journalTerm(d.j)
		}
		if grant != nil {
			return grant, true
		}
		sleep := time.Until(deadline)
		if sleep <= 0 {
			return nil, false
		}
		// A backoff-delayed job may become ready before new work arrives.
		if nextReady > 0 && nextReady < sleep {
			sleep = nextReady
		}
		timer := time.NewTimer(sleep)
		select {
		case <-wake:
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, false
		}
		timer.Stop()
	}
}

// popReadyLocked removes and returns the first grantable job, the
// canceled jobs it swept past (for the caller to finalise outside the
// lock), and the delay until the soonest backoff-delayed job is ready
// (0 when none are waiting on backoff).
func (c *Coordinator) popReadyLocked(now time.Time) (ready *fleetJob, drop []*fleetJob, nextReady time.Duration) {
	keep := c.queue[:0]
	for i, fj := range c.queue {
		if ready != nil {
			keep = append(keep, c.queue[i:]...)
			break
		}
		if fj.j.State().Terminal() || fj.j.Context().Err() != nil {
			delete(c.jobs, fj.j.ID)
			drop = append(drop, fj)
			continue
		}
		if fj.readyAt.After(now) {
			if d := fj.readyAt.Sub(now); nextReady == 0 || d < nextReady {
				nextReady = d
			}
			keep = append(keep, fj)
			continue
		}
		ready = fj
	}
	c.queue = keep
	return ready, drop, nextReady
}

// leaseLocked grants fj to workerID; c.mu must be held. It returns nil
// when the job cannot start (canceled between queue and grant), in which
// case the job has been reaped from the fleet maps.
func (c *Coordinator) leaseLocked(fj *fleetJob, workerID string, now time.Time) *LeaseGrant {
	if !fj.j.MarkRunning() {
		delete(c.jobs, fj.j.ID)
		return nil
	}
	c.epoch++
	fj.attempt++
	fj.lease = &lease{id: leaseID(c.epoch), worker: workerID, expires: now.Add(c.opts.LeaseTTL)}
	c.leasesGranted.Add(1)
	c.srv.CountExecution()
	c.journal.Lease(fj.j.ID, c.epoch, workerID, fj.attempt)
	return &LeaseGrant{
		JobID:      fj.j.ID,
		Lease:      fj.lease.id,
		DeadlineMs: c.cfg.JobDeadline.Milliseconds(),
		Request:    json.RawMessage(fj.j.RequestJSON()),
	}
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeBody(w, r, &req) {
		return
	}
	now := time.Now()
	c.mu.Lock()
	c.touchWorkerLocked(req.WorkerID, now)
	fj := c.jobs[req.JobID]
	if fj == nil || fj.lease == nil || fj.lease.id != req.Lease {
		c.mu.Unlock()
		writeJSON(w, http.StatusOK, HeartbeatResponse{Status: StatusLost})
		return
	}
	fj.lease.expires = now.Add(c.opts.LeaseTTL)
	j := fj.j
	c.mu.Unlock()
	if req.Progress != nil {
		c.srv.PublishProgress(j, *req.Progress)
	}
	if j.Context().Err() != nil || j.State() == serve.JobCanceled {
		writeJSON(w, http.StatusOK, HeartbeatResponse{Status: StatusCanceled})
		return
	}
	writeJSON(w, http.StatusOK, HeartbeatResponse{Status: StatusOK})
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req ResultRequest
	if !decodeBody(w, r, &req) {
		return
	}
	writeJSON(w, http.StatusOK, ResultResponse{Status: c.acceptResult(&req)})
}

// acceptResult applies one result report to the lease state machine.
func (c *Coordinator) acceptResult(req *ResultRequest) string {
	now := time.Now()
	c.mu.Lock()
	c.touchWorkerLocked(req.WorkerID, now)
	fj := c.jobs[req.JobID]
	if fj == nil {
		c.mu.Unlock()
		return StatusUnknown
	}
	current := fj.lease != nil && fj.lease.id == req.Lease
	if !current {
		// A report from a superseded lease. Successful payloads are
		// deterministic and content-addressed — byte-identical to what
		// the active retry would produce — so accept one if the job is
		// still open and save the retry the work (its holder learns via
		// StatusLost on its next heartbeat). Failures and give-backs
		// from stale leases are discarded: the active attempt decides.
		if !req.Requeue && !req.Outcome.Canceled && req.Outcome.Error == "" && len(req.Outcome.Payload) > 0 {
			c.removeLocked(fj)
			c.staleAccepted.Add(1)
			c.mu.Unlock()
			c.srv.FinishRemote(fj.j, req.Outcome)
			c.journalTerm(fj.j)
			return StatusAccepted
		}
		c.staleResults.Add(1)
		c.mu.Unlock()
		return StatusStale
	}
	if req.Requeue {
		exhausted := c.requeueLocked(fj, now)
		c.mu.Unlock()
		if exhausted {
			c.failExhausted(fj)
			return StatusAccepted
		}
		return StatusRequeued
	}
	c.removeLocked(fj)
	c.mu.Unlock()
	c.srv.FinishRemote(fj.j, req.Outcome)
	c.journalTerm(fj.j)
	return StatusAccepted
}

// removeLocked deletes fj from the fleet maps (it is about to be
// finalised); c.mu must be held.
func (c *Coordinator) removeLocked(fj *fleetJob) {
	delete(c.jobs, fj.j.ID)
	fj.lease = nil
	for i, q := range c.queue {
		if q == fj {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			break
		}
	}
}

// requeueLocked returns fj to the queue with backoff after a lease
// expiry or give-back. It reports true when the job's attempts are
// exhausted, in which case the caller must finalise it as failed
// outside the lock (the job has been removed from the fleet maps).
func (c *Coordinator) requeueLocked(fj *fleetJob, now time.Time) (exhausted bool) {
	fj.lease = nil
	if fj.attempt >= c.opts.MaxAttempts {
		delete(c.jobs, fj.j.ID)
		return true
	}
	fj.j.MarkQueued()
	fj.readyAt = now.Add(Backoff(c.opts.retryBase(), c.opts.retryMax(), fj.attempt, c.rng.Float64()))
	c.queue = append(c.queue, fj)
	c.requeues.Add(1)
	c.journal.Requeue(fj.j.ID, fj.attempt)
	c.wakeLocked()
	return false
}

func (c *Coordinator) failExhausted(fj *fleetJob) {
	c.retriesExhausted.Add(1)
	c.srv.FinishRemote(fj.j, serve.RemoteOutcome{
		Error: fmt.Sprintf("fleet: job abandoned after %d lease attempts (workers died or stalled); giving up", fj.attempt),
	})
	c.journalTerm(fj.j)
}

// ---- janitor ----

// janitor sweeps expired leases back into the queue, reaps canceled
// queued jobs, and drains ready work to the local pool when no worker is
// live — the degraded mode that keeps a workerless coordinator serving.
func (c *Coordinator) janitor() {
	tick := time.NewTicker(c.opts.janitorEvery())
	defer tick.Stop()
	for {
		select {
		case <-c.stopJanitor:
			return
		case <-tick.C:
		}
		c.sweep(time.Now())
	}
}

// sweep runs one janitor pass (split out for tests).
func (c *Coordinator) sweep(now time.Time) {
	var exhausted, localRun, dropped []*fleetJob
	c.mu.Lock()
	for _, fj := range c.jobs {
		if fj.lease != nil && fj.lease.expires.Before(now) {
			c.leaseExpiries.Add(1)
			if c.requeueLocked(fj, now) {
				exhausted = append(exhausted, fj)
			}
		}
	}
	// Reap canceled queued jobs and, with zero live workers, hand ready
	// jobs to the local pool rather than letting them wait for a worker
	// that may never come. The local Submit runs under c.mu (Scheduler's
	// lock is a leaf) so a job atomically moves fleet→local: it is never
	// in both, and never in neither.
	noWorkers := c.liveWorkersLocked(now) == 0
	keep := c.queue[:0]
	for _, fj := range c.queue {
		switch {
		case fj.j.State().Terminal() || fj.j.Context().Err() != nil:
			delete(c.jobs, fj.j.ID)
			dropped = append(dropped, fj)
		case noWorkers && !fj.readyAt.After(now) && c.local.Submit(fj.j) == nil:
			delete(c.jobs, fj.j.ID)
			localRun = append(localRun, fj)
		default:
			keep = append(keep, fj)
		}
	}
	c.queue = keep
	// Forget workers long past their liveness window.
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) > 10*c.opts.workerTTL() {
			delete(c.workers, id)
		}
	}
	c.mu.Unlock()

	for _, fj := range exhausted {
		c.failExhausted(fj)
	}
	for _, fj := range dropped {
		c.srv.DropCanceled(fj.j)
		c.journalTerm(fj.j)
	}
	c.localJobs.Add(uint64(len(localRun)))
}

// ---- metrics ----

// WritePromTo implements serve.PromWriter: the fleet-specific series
// appended to the server's /metrics exposition.
func (c *Coordinator) WritePromTo(w io.Writer) {
	c.mu.Lock()
	now := time.Now()
	live := c.liveWorkersLocked(now)
	queued := len(c.queue)
	leased := len(c.jobs) - queued
	c.mu.Unlock()
	serve.WriteSeries(w, []serve.Series{
		{Name: "nord_fleet_workers_live", Help: "Registered workers seen within the liveness window.", Type: "gauge", Value: uint64(live)},
		{Name: "nord_fleet_leases_active", Help: "Jobs currently leased to workers.", Type: "gauge", Value: uint64(leased)},
		{Name: "nord_fleet_queue_depth", Help: "Jobs waiting for a lease.", Type: "gauge", Value: uint64(queued)},
		{Name: "nord_fleet_leases_granted_total", Help: "Lease grants (execution attempts).", Type: "counter", Value: c.leasesGranted.Load()},
		{Name: "nord_fleet_lease_expiries_total", Help: "Leases that expired without a heartbeat.", Type: "counter", Value: c.leaseExpiries.Load()},
		{Name: "nord_fleet_requeues_total", Help: "Jobs returned to the queue after expiry or give-back.", Type: "counter", Value: c.requeues.Load()},
		{Name: "nord_fleet_stale_results_total", Help: "Reports discarded for arriving under a superseded lease.", Type: "counter", Value: c.staleResults.Load()},
		{Name: "nord_fleet_stale_accepted_total", Help: "Successful stale reports accepted (deterministic results).", Type: "counter", Value: c.staleAccepted.Load()},
		{Name: "nord_fleet_local_jobs_total", Help: "Jobs executed on the coordinator's local fallback pool.", Type: "counter", Value: c.localJobs.Load()},
		{Name: "nord_fleet_retries_exhausted_total", Help: "Jobs failed after exhausting their lease attempts.", Type: "counter", Value: c.retriesExhausted.Load()},
	})
	if c.journal == nil {
		return
	}
	st := c.journal.stats()
	serve.WriteSeries(w, []serve.Series{
		{Name: "nord_fleet_journal_appends_total", Help: "Journal records appended (fsynced) since open.", Type: "counter", Value: st.appends},
		{Name: "nord_fleet_journal_append_errors_total", Help: "Journal append failures (durability lost, jobs still run).", Type: "counter", Value: st.appendErrors},
		{Name: "nord_fleet_journal_snapshots_total", Help: "Snapshot compactions (log truncations).", Type: "counter", Value: st.snapshots},
		{Name: "nord_fleet_journal_replayed_records_total", Help: "Log records replayed at the last open.", Type: "counter", Value: st.replayed},
		{Name: "nord_fleet_journal_torn_tails_total", Help: "Torn (partially written) log tails discarded on replay.", Type: "counter", Value: st.tornTails},
		{Name: "nord_fleet_journal_dup_terminals_total", Help: "Duplicate terminal records tolerated on replay (first wins).", Type: "counter", Value: st.dupTerms},
		{Name: "nord_fleet_journal_replayed_jobs_total", Help: "Jobs restored already-terminal from the journal at startup.", Type: "counter", Value: c.journalReplayed.Load()},
		{Name: "nord_fleet_journal_requeues_on_recovery_total", Help: "Journaled jobs requeued for re-execution at startup.", Type: "counter", Value: c.journalRequeued.Load()},
		{Name: "nord_fleet_journal_recovery_skipped_total", Help: "Journaled jobs whose records no longer restore (skipped at startup).", Type: "counter", Value: c.journalSkipped.Load()},
	})
}
