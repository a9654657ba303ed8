package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nord/internal/noc"
	"nord/internal/obs"
	"nord/internal/sim"
	"nord/internal/stats"
)

// ErrJobDeadline is the cancellation cause attached to a job's context
// when its wall-clock execution deadline expires. It lets the finaliser
// distinguish "the client gave up" (canceled) from "the run blew its
// budget" (failed) — both arrive as context cancellation through the sim
// layer's polling.
var ErrJobDeadline = errors.New("serve: job execution deadline exceeded")

// retryAfter is the 429 backoff hint, in whole seconds as the
// Retry-After header carries it.
const retryAfter = "2"

// maxSearches bounds concurrently running design-space searches.
// Searches run on dedicated goroutines — not in the worker pool — so
// their candidate evaluations always have pool capacity to land on; this
// cap is the backpressure that replaces the queue bound for them. Each
// search keeps at most Config.Workers candidate evaluations in flight:
// more would only deepen the queue.
const maxSearches = 4

// tooManyRequests answers 429 with the Retry-After hint — the one
// rejection path for a full queue and for the search cap — and counts
// the rejection.
func (s *Server) tooManyRequests(w http.ResponseWriter, msg string) {
	s.metrics.JobsRejected.Add(1)
	w.Header().Set("Retry-After", retryAfter)
	writeError(w, http.StatusTooManyRequests, msg)
}

// Request-size bounds: submissions, and PUT /v1/cache/{key} payloads —
// marshalled results, which can be much larger than submissions.
const (
	maxBodyBytes      = 1 << 20
	maxCacheBodyBytes = 16 << 20
)

// Config tunes a Server. The zero value selects sensible defaults. A job
// runs at sim.RunOptions' default poll and progress cadence (a context
// poll every 1024 cycles, a progress snapshot every 5000), wherever it
// executes.
type Config struct {
	// Workers is the worker-pool size (default GOMAXPROCS). Each worker
	// runs one single-threaded simulation at a time. A fleet coordinator
	// sizes its local fallback pool by it.
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// submissions beyond it receive 429 + Retry-After (default 64). A
	// fleet coordinator bounds its unleased jobs and its fallback queue
	// by it too.
	QueueDepth int
	// CacheEntries bounds the in-memory result cache (default 512).
	CacheEntries int
	// CacheDir, when non-empty, enables the on-disk cache spill.
	CacheDir string
	// JobDeadline bounds one job's wall-clock execution (0 = unbounded).
	// A run that exceeds it is failed — not canceled — so a runaway
	// simulation cannot pin a worker forever. A fleet coordinator hands
	// it to its workers in every lease grant.
	JobDeadline time.Duration
	// Dispatcher, when non-nil, builds the job dispatcher from the
	// constructed server (e.g. a fleet coordinator wiring its execution
	// callbacks); nil selects the in-process Scheduler.
	Dispatcher func(*Server) Dispatcher
}

func (c *Config) fill() {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
}

// Server is the simulation job service: dispatcher, cache, metrics and
// the HTTP API glue.
type Server struct {
	cfg     Config
	metrics Metrics
	cache   *Cache
	disp    Dispatcher

	mu    sync.Mutex
	jobs  map[string]*Job // by client-facing ID
	byKey map[string]*Job // live dedup index: queued/running/done jobs per cache key
	seq   uint64
	// terminal is the retirement queue: jobs in the order they became
	// terminal, at most retain of them (see retireLocked).
	terminal []*Job
	retain   int

	// searches counts running design-space searches against maxSearches
	// (under mu); searchWG waits for them on shutdown (their goroutines
	// live outside the dispatcher's pool).
	searches int
	searchWG sync.WaitGroup

	draining atomic.Bool
}

// New builds a Server from cfg.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	cache, err := NewCache(cfg.CacheEntries, cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		cache:  cache,
		jobs:   map[string]*Job{},
		byKey:  map[string]*Job{},
		retain: RetainTerminal,
	}
	if cfg.Dispatcher != nil {
		s.disp = cfg.Dispatcher(s)
	} else {
		s.disp = NewScheduler(cfg.Workers, cfg.QueueDepth, s.Exec)
	}
	return s, nil
}

// Config returns the server's configuration with its defaults filled
// in. A dispatcher built by Config.Dispatcher reads its deadline, queue
// bound and pool size here, so every job runs under the same settings
// wherever it executes.
func (s *Server) Config() Config { return s.cfg }

// Metrics exposes the counter set (tests and embedders).
func (s *Server) Metrics() *Metrics { return &s.metrics }

// Handler returns the HTTP API:
//
//	POST   /v1/jobs             submit a job (202; 200 on cache hit; 429 when full)
//	POST   /v1/search           submit a design-space search (202; 429 at maxSearches)
//	GET    /v1/jobs             list job summaries
//	GET    /v1/jobs/{id}        job status + result when done
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/events NDJSON progress stream
//	GET    /v1/jobs/{id}/trace  NDJSON cycle-level event stream (jobs submitted with trace_events)
//	GET    /v1/cache/{key}      read a cached payload by key (sha256 in X-Nord-Sum)
//	PUT    /v1/cache/{key}      write a payload into the cache (digest enforced)
//	GET    /metrics             Prometheus text metrics
//	GET    /healthz             readiness (503 while draining; "degraded" + notes while limping)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", timed(&s.metrics.SubmitSeconds, s.handleSubmit))
	mux.HandleFunc("POST /v1/search", s.handleSearch)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", timed(&s.metrics.GetSeconds, s.handleGet))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheGet)
	mux.HandleFunc("PUT /v1/cache/{key}", s.handleCachePut)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// timed observes the wrapped handler's run time on h.
func timed(h *Histogram, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next(w, r)
		h.Observe(time.Since(start))
	}
}

// BeginDrain stops accepting new jobs; /healthz flips to 503 so load
// balancers stop routing here.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Shutdown drains gracefully: intake stops, running searches are
// canceled first (they feed the dispatcher, so they must stop producing
// before it closes), then queued and running jobs get until ctx's
// deadline to finish, then stragglers are canceled and given a short
// grace period to unwind.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	s.mu.Lock()
	for _, j := range s.jobs {
		if j.Kind == "search" {
			j.Cancel()
		}
	}
	s.mu.Unlock()
	s.searchWG.Wait()
	s.disp.Close()
	if err := s.disp.Wait(ctx); err == nil {
		return nil
	}
	s.mu.Lock()
	for _, j := range s.jobs {
		j.Cancel()
	}
	s.mu.Unlock()
	grace, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.disp.Wait(grace)
}

// submitResponse is the POST /v1/jobs body: flat so shell tooling can
// scrape it without a JSON parser.
type submitResponse struct {
	ID     string   `json:"id"`
	Key    string   `json:"key"`
	State  JobState `json:"state"`
	Cached bool     `json:"cached"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	t, err := resolveTask(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	j, served, err := s.submitTask(t, false)
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.tooManyRequests(w, "job queue full")
			return
		}
		writeError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	if served {
		writeJSON(w, http.StatusOK, submitResponse{ID: j.ID, Key: j.Key, State: j.State(), Cached: true})
		return
	}
	writeJSON(w, http.StatusAccepted, submitResponse{ID: j.ID, Key: j.Key, State: JobQueued, Cached: false})
}

// submitTask indexes and dispatches a resolved task: singleflight
// coalescing onto a live job for the same content address, then the
// memoized-result cache, then a fresh dispatch. served reports whether
// the request was satisfied without a new execution (coalesced or served
// from cache). ephemeral marks jobs created on behalf of a search
// evaluation: they are canceled if every waiting search abandons them,
// but are upgraded to ordinary jobs the moment a direct submission
// coalesces onto them.
func (s *Server) submitTask(t *task, ephemeral bool) (j *Job, served bool, err error) {
	s.mu.Lock()
	// In-flight or completed job for the same content address: coalesce.
	if j, ok := s.byKey[t.key]; ok {
		if !ephemeral {
			j.claimShared()
		}
		s.metrics.CacheHits.Add(1)
		s.metrics.JobsSubmitted.Add(1)
		s.mu.Unlock()
		return j, true, nil
	}
	// Memoized result (possibly spilled to disk by an earlier eviction).
	// Traced jobs always execute: a cached Result has no event stream.
	if val, ok := s.cache.Get(t.key); ok && !t.traced {
		j := s.newJobLocked(t)
		s.completeFromCache(j, val)
		s.retireLocked(j)
		s.metrics.CacheHits.Add(1)
		s.metrics.JobsSubmitted.Add(1)
		s.metrics.JobsDone.Add(1)
		s.mu.Unlock()
		return j, true, nil
	}
	j = s.newJobLocked(t)
	j.ephemeral = ephemeral
	if err := s.disp.Submit(j); err != nil {
		delete(s.jobs, j.ID)
		delete(s.byKey, j.Key)
		s.mu.Unlock()
		return nil, false, err
	}
	s.metrics.CacheMisses.Add(1)
	s.metrics.JobsSubmitted.Add(1)
	s.mu.Unlock()
	return j, false, nil
}

// newJobLocked allocates a job ID and indexes the job; s.mu must be held.
func (s *Server) newJobLocked(t *task) *Job {
	s.seq++
	j := newJob(fmt.Sprintf("j%06d", s.seq), t)
	s.jobs[j.ID] = j
	s.byKey[j.Key] = j
	return j
}

// RetainTerminal is how many terminal jobs stay queryable by ID. A job
// pins its rendered result, and /metrics and GET /v1/jobs walk every job
// held, so the server forgets the oldest beyond this depth. It is also
// the default depth a journaled coordinator restores after a restart
// (fleet.JournalOptions.RetainTerminal), so a live and a restarted
// process forget alike. The results themselves stay in the cache.
const RetainTerminal = 4096

// retireLocked queues a job that has just become terminal and forgets the
// oldest terminal jobs beyond the retention depth: gone from jobs (their
// IDs answer 404) and from the dedup index, so an identical submission
// falls through to the result cache, memory then spill. Live jobs are
// never forgotten. s.mu must be held.
func (s *Server) retireLocked(j *Job) {
	s.terminal = append(s.terminal, j)
	for len(s.terminal) > s.retain {
		old := s.terminal[0]
		s.terminal[0] = nil // the backing array must not pin the job
		s.terminal = s.terminal[1:]
		if s.jobs[old.ID] == old {
			delete(s.jobs, old.ID)
		}
		if s.byKey[old.Key] == old {
			delete(s.byKey, old.Key)
		}
	}
}

// dropKey removes the job's dedup-index entry (failed or canceled jobs
// must not satisfy future submissions), leaving the job itself queryable.
func (s *Server) dropKey(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byKey[j.Key] == j {
		delete(s.byKey, j.Key)
	}
}

// completeFromCache finishes a fresh job with a memoized payload, then
// points the in-memory cache entry at the job's rendering of it: the job
// outlives the entry, and one shared copy is all either needs.
func (s *Server) completeFromCache(j *Job, val []byte) {
	j.mu.Lock()
	j.cacheHit = true
	j.mu.Unlock()
	j.terminate(JobDone, val, "")
	s.cache.insert(j.Key, j.result)
}

// outcome is how a job ended, in the form settle consumes.
type outcome struct {
	state   JobState
	payload []byte // JobDone: the marshalled result
	errMsg  string
	// store asks for the payload to be written to the result cache (done
	// simulation jobs that are not traced).
	store bool
	// run carries a done run's headline counters for the per-design
	// series (nil for sweeps and searches).
	run *RunMeta
	// unstarted marks a job its dispatcher dropped before running it:
	// Cancel already made it terminal, and the drop is what accounts it.
	unstarted bool
}

// failure classifies a run error: the per-job deadline and everything
// unexpected fail the job, a client cancel (or server shutdown) cancels it.
func failure(err error) outcome {
	o := outcome{state: JobFailed, errMsg: err.Error()}
	if !errors.Is(err, ErrJobDeadline) && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		o.state = JobCanceled
	}
	return o
}

// settle is the one place a job becomes terminal. The order is the
// contract: the terminal view is rendered first, so that what goes into
// the cache is the payload as it sits inside that view (job and cache
// share one copy); the result is in the cache before finish closes Done
// (a waiter woken by Done, or a client that polled "done", must find it
// there); and only the call that performed the transition accounts it —
// a duplicate or late report of an already-terminal job changes nothing.
// Jobs that did not finish done leave the dedup index so they cannot
// satisfy future submissions; the accounting call also queues the job for
// retirement (retireLocked). It reports whether this call won.
func (s *Server) settle(j *Job, o outcome) bool {
	var view, result []byte
	if !j.State().Terminal() { // a duplicate or late report renders nothing
		view, result = j.seal(o.state, o.payload, o.errMsg)
		if o.store {
			s.cache.Put(j.Key, result)
		}
	}
	won := j.finish(o.state, view, result, o.errMsg)
	if o.state != JobDone {
		s.dropKey(j)
	}
	if !won && !(o.unstarted && j.State() == JobCanceled) {
		return false
	}
	s.mu.Lock()
	s.retireLocked(j)
	s.mu.Unlock()
	switch o.state {
	case JobDone:
		s.metrics.JobsDone.Add(1)
		if o.run != nil {
			if d, err := noc.DesignByName(o.run.Design); err == nil {
				s.metrics.AddRun(d, o.run.Wakeups, o.run.Detours)
			}
		}
	case JobFailed:
		s.metrics.JobsFailed.Add(1)
	case JobCanceled:
		s.metrics.JobsCanceled.Add(1)
	}
	return won
}

// Exec runs one job in-process on the calling goroutine — the local
// execution path used by the Scheduler's workers and by a fleet
// coordinator's zero-worker fallback.
func (s *Server) Exec(j *Job) {
	if !j.markRunning() {
		s.DropCanceled(j)
		return
	}
	s.metrics.SimsExecuted.Add(1)
	var (
		tracer   *obs.Tracer
		traceBuf []obs.Event
	)
	opt := sim.RunOptions{
		Progress: func(p stats.Progress) {
			// The progress callback runs on the simulation goroutine, so
			// draining the (single-goroutine) tracer here is race-free.
			if tracer != nil {
				traceBuf = tracer.DrainEvents(traceBuf[:0])
				j.publishTrace(traceBuf)
			}
			s.PublishProgress(j, p)
		},
	}
	if j.task.traced {
		tracer = obs.New(obs.Config{})
		opt.Tracer = tracer
	}
	ctx := j.ctx
	if s.cfg.JobDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, s.cfg.JobDeadline, ErrJobDeadline)
		defer cancel()
	}
	payload, meta, err := j.task.run(ctx, opt)
	if tracer != nil {
		traceBuf = tracer.DrainEvents(traceBuf[:0])
		j.publishTrace(traceBuf)
		j.setTraceTotals(tracer.Total(), tracer.Dropped())
	}
	if err != nil {
		s.settle(j, failure(err))
		return
	}
	s.settle(j, outcome{state: JobDone, payload: payload, store: !j.task.traced, run: meta})
}

// RemoteOutcome is a worker-reported job result crossing the fleet wire.
type RemoteOutcome struct {
	// Payload is the marshalled sim result (nil unless the run succeeded).
	Payload json.RawMessage `json:"payload,omitempty"`
	// Error is the failure message for failed or canceled runs.
	Error string `json:"error,omitempty"`
	// Canceled marks client-requested cancellation (propagated through a
	// heartbeat) as opposed to a run failure.
	Canceled bool `json:"canceled,omitempty"`
	// Meta carries the run's headline counters for the per-design metrics.
	Meta *RunMeta `json:"meta,omitempty"`
}

// FinishRemote finalises a job with a worker-produced outcome: terminal
// state, cache fill and metrics, through the same settle as the local
// Exec path. A duplicate or late report of an already-terminal job
// accounts nothing.
func (s *Server) FinishRemote(j *Job, out RemoteOutcome) {
	switch {
	case out.Canceled:
		s.settle(j, outcome{state: JobCanceled, errMsg: out.Error})
	case out.Error != "":
		s.settle(j, outcome{state: JobFailed, errMsg: out.Error})
	default:
		s.settle(j, outcome{state: JobDone, payload: out.Payload, store: !j.task.traced, run: out.Meta})
	}
}

// PublishProgress forwards a job's progress snapshot to its /events
// subscribers and folds the cycle delta into the cumulative counter.
// Local runs call it from the sim goroutine; fleet coordinators call it
// with snapshots carried on worker heartbeats.
func (s *Server) PublishProgress(j *Job, p stats.Progress) {
	if d := j.publish(p); d > 0 {
		s.metrics.SimCycles.Add(d)
	}
}

// CountExecution records one execution attempt (the fleet coordinator's
// lease-grant counterpart of Exec's local accounting).
func (s *Server) CountExecution() { s.metrics.SimsExecuted.Add(1) }

// DropCanceled finalises a job the dispatcher discarded before execution
// (canceled while queued in a fleet).
func (s *Server) DropCanceled(j *Job) {
	s.settle(j, outcome{state: JobCanceled, errMsg: "canceled while queued", unstarted: true})
}

// ErrNoCachedResult reports that a journaled done job's payload is no
// longer recoverable from the content-addressed cache (evicted with no
// spill, or the spill was corrupt and quarantined). The coordinator
// requeues such a job: the run is deterministic, so recomputing yields
// the same bytes the dead process served.
var ErrNoCachedResult = errors.New("serve: no cached result for restored job")

// RestoreJob re-creates a queued job from its journaled submission body —
// the coordinator's crash-recovery path for jobs that were open when the
// previous process died. The job keeps its original client-facing ID, so
// a client polling GET /v1/jobs/{id} across the restart never notices.
func (s *Server) RestoreJob(id string, reqJSON []byte) (*Job, error) {
	t, err := restoreTask(reqJSON)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[id]; ok {
		return nil, fmt.Errorf("serve: job %s already exists", id)
	}
	j := newJob(id, t)
	s.jobs[id] = j
	if _, ok := s.byKey[j.Key]; !ok {
		s.byKey[j.Key] = j
	}
	s.bumpSeqLocked(id)
	return j, nil
}

// RestoreTerminal re-creates an already-terminal job from the journal.
// Done jobs are rehydrated with their payload from the content-addressed
// cache (the byte-identical result the dead process served); if the cache
// no longer holds it, ErrNoCachedResult tells the caller to requeue and
// recompute instead. Failed and canceled jobs restore with their recorded
// error and are not indexed for dedup (they must not satisfy future
// submissions, mirroring dropKey).
func (s *Server) RestoreTerminal(id string, reqJSON []byte, state JobState, errMsg string) error {
	if !state.Terminal() {
		return fmt.Errorf("serve: RestoreTerminal with non-terminal state %q", state)
	}
	t, err := restoreTask(reqJSON)
	if err != nil {
		return err
	}
	var payload []byte
	if state == JobDone {
		val, ok := s.cache.Get(t.key)
		if !ok {
			return ErrNoCachedResult
		}
		payload = val
	}
	s.mu.Lock()
	if _, ok := s.jobs[id]; ok {
		s.mu.Unlock()
		return fmt.Errorf("serve: job %s already exists", id)
	}
	j := newJob(id, t)
	s.jobs[id] = j
	if state == JobDone {
		if _, ok := s.byKey[j.Key]; !ok {
			s.byKey[j.Key] = j
		}
	}
	s.bumpSeqLocked(id)
	if state == JobDone {
		s.completeFromCache(j, payload)
	} else {
		j.terminate(state, nil, errMsg)
	}
	s.retireLocked(j)
	s.mu.Unlock()
	return nil
}

// restoreTask re-resolves a journaled submission body into a runnable
// task, exactly as handleSubmit would have.
func restoreTask(reqJSON []byte) (*task, error) {
	var req JobRequest
	if err := json.Unmarshal(reqJSON, &req); err != nil {
		return nil, fmt.Errorf("serve: journaled request does not parse: %w", err)
	}
	t, err := resolveTask(&req)
	if err != nil {
		return nil, fmt.Errorf("serve: journaled request does not resolve: %w", err)
	}
	return t, nil
}

// bumpSeqLocked advances the job-ID sequence past a restored ID so fresh
// submissions never collide with recovered jobs; s.mu must be held.
func (s *Server) bumpSeqLocked(id string) {
	var n uint64
	if _, err := fmt.Sscanf(id, "j%d", &n); err == nil && n > s.seq {
		s.seq = n
	}
}

func (s *Server) lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	// A terminal job cannot change: its body was rendered at the
	// transition, and serving it is one Write of known length.
	if view := j.terminalView(); view != nil {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(view)))
		_, _ = w.Write(view)
		return
	}
	writeJSON(w, http.StatusOK, j.status(true))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status(false)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	j.Cancel()
	s.dropKey(j)
	writeJSON(w, http.StatusOK, map[string]any{"id": j.ID, "state": j.State()})
}

// eventEnd is the last line of an /events stream.
type eventEnd struct {
	Done  bool     `json:"done"`
	State JobState `json:"state"`
	Error string   `json:"error,omitempty"`
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	enc := json.NewEncoder(w)
	write := func(batch []stats.Progress) error {
		for _, p := range batch {
			if err := enc.Encode(p); err != nil {
				return err
			}
		}
		return nil
	}
	streamFeed(w, r, j, &j.progress, write, func(st JobStatus) any {
		return eventEnd{Done: true, State: st.State, Error: st.Error}
	})
}

// streamFeed serves one of a job's feeds as NDJSON: the history so far,
// then each batch as it is published, then — once the job is terminal —
// the line end builds from its final status. It returns early when the
// client goes away.
func streamFeed[T any](w http.ResponseWriter, r *http.Request, j *Job, f *feed[T], write func([]T) error, end func(JobStatus) any) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, canFlush := w.(http.Flusher)
	flush := func() {
		if canFlush {
			flusher.Flush()
		}
	}
	history, ch, unsub := subscribe(j, f)
	defer unsub()
	if write(history) != nil {
		return
	}
	flush()
	for {
		select {
		case batch, open := <-ch:
			if !open {
				_ = json.NewEncoder(w).Encode(end(j.status(false)))
				flush()
				return
			}
			if write(batch) != nil {
				return
			}
			flush()
		case <-r.Context().Done():
			return
		}
	}
}

// traceEnd is the last line of a /trace stream.
type traceEnd struct {
	Type    string   `json:"type"`
	Done    bool     `json:"done"`
	State   JobState `json:"state"`
	Total   uint64   `json:"events_total"`
	Dropped uint64   `json:"events_dropped"`
	Error   string   `json:"error,omitempty"`
}

// writeTraceEvents renders a batch as "event" NDJSON lines.
func writeTraceEvents(w io.Writer, batch []obs.Event) error {
	for _, e := range batch {
		if err := obs.WriteLine(w, "event", e); err != nil {
			return err
		}
	}
	return nil
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if !j.task.traced {
		writeError(w, http.StatusConflict, "job was not submitted with trace_events; resubmit the spec with \"trace_events\": true")
		return
	}
	write := func(batch []obs.Event) error { return writeTraceEvents(w, batch) }
	streamFeed(w, r, j, &j.trace, write, func(st JobStatus) any {
		total, dropped := j.traceTotals()
		return traceEnd{Type: "end", Done: true, State: st.State,
			Total: total, Dropped: dropped, Error: st.Error}
	})
}

// SumHeader carries the hex sha256 of a cache payload on both directions
// of the /v1/cache wire, so a corrupted transfer (or a buggy writer) is
// detected at the boundary instead of poisoning the cache.
const SumHeader = "X-Nord-Sum"

// validCacheKey accepts exactly the keys CacheKey mints: 64 lowercase hex
// characters. Anything else is rejected before it can touch the spill
// directory namespace.
func validCacheKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handleCacheGet serves the cache's payload for key to outside readers
// (tools, benchmarks, another deployment). The response carries the
// payload's sha256 for end-to-end validation.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validCacheKey(key) {
		writeError(w, http.StatusBadRequest, "malformed cache key")
		return
	}
	val, ok := s.cache.Get(key)
	if !ok {
		s.metrics.CacheRemoteMisses.Add(1)
		writeError(w, http.StatusNotFound, "no cached result")
		return
	}
	s.metrics.CacheRemoteHits.Add(1)
	sum := sha256.Sum256(val)
	w.Header().Set(SumHeader, hex.EncodeToString(sum[:]))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(val)))
	_, _ = w.Write(val)
}

// handleCachePut stores an outside writer's payload under key. The
// X-Nord-Sum digest is mandatory and enforced against the body — a
// mismatch means the payload was damaged in flight (or the writer is
// wrong) and is rejected rather than cached. PUTs are allowed while
// draining: a payload that arrives intact is kept.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validCacheKey(key) {
		writeError(w, http.StatusBadRequest, "malformed cache key")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxCacheBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading payload: "+err.Error())
		return
	}
	sum := sha256.Sum256(body)
	if want := r.Header.Get(SumHeader); want != hex.EncodeToString(sum[:]) {
		s.metrics.CacheRemotePutRejected.Add(1)
		writeError(w, http.StatusBadRequest, "payload digest mismatch (or missing "+SumHeader+" header)")
		return
	}
	if len(body) == 0 || !json.Valid(body) {
		s.metrics.CacheRemotePutRejected.Add(1)
		writeError(w, http.StatusBadRequest, "payload is not valid JSON")
		return
	}
	s.cache.Put(key, body)
	s.metrics.CacheRemotePuts.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var queued, running int
	s.mu.Lock()
	for _, j := range s.jobs {
		switch j.State() {
		case JobQueued:
			queued++
		case JobRunning:
			running++
		}
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WriteProm(w, Gauges{
		QueueDepth:   s.disp.QueueDepth(),
		Workers:      s.disp.Workers(),
		BusyWorkers:  s.disp.Busy(),
		CacheEntries: s.cache.Len(),
		JobsQueued:   queued,
		JobsRunning:  running,
	})
	WriteSeries(w, []Series{{"nord_cache_corrupt_quarantined_total", "Spill files quarantined (*.corrupt) on digest mismatch.", "counter", s.cache.CorruptQuarantined()}})
	if pw, ok := s.disp.(PromWriter); ok {
		pw.WritePromTo(w)
	}
}

// handleHealthz distinguishes three states: 503 "draining" (stop routing
// here), 200 "degraded" with the dispatcher's notes (alive but limping —
// zero live workers, wedged journal), and plain
// 200 "ok".
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	resp := map[string]any{
		"status":  "ok",
		"workers": s.disp.Workers(),
	}
	if hn, ok := s.disp.(HealthNoter); ok {
		if notes := hn.HealthNotes(); len(notes) > 0 {
			resp["status"] = "degraded"
			resp["degraded"] = notes
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
