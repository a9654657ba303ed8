package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nord/internal/serve"
	"nord/internal/sim"
)

// ---- harness ----

type testFleet struct {
	srv   *serve.Server
	coord *Coordinator
	ts    *httptest.Server
}

// newTestFleet builds a coordinator-mode server: the serve API and the
// /fleet/v1 endpoints on one listener, mirroring cmd/nordserved.
func newTestFleet(t *testing.T, opts Options, cfg serve.Config) *testFleet {
	t.Helper()
	var coord *Coordinator
	cfg.Dispatcher = func(s *serve.Server) serve.Dispatcher {
		coord = NewCoordinator(s, opts)
		return coord
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/fleet/", coord.Handler())
	mux.Handle("/", srv.Handler())
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return &testFleet{srv: srv, coord: coord, ts: ts}
}

// chaosTransport is an http.RoundTripper with injectable failures: a
// temporary partition window or a permanent blackhole (killed process).
// It records the method and path of every request it is handed.
type chaosTransport struct {
	base http.RoundTripper

	mu    sync.Mutex
	until time.Time
	dead  bool
	sent  []string // "METHOD /path", in send order
}

func (ct *chaosTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ct.mu.Lock()
	ct.sent = append(ct.sent, r.Method+" "+r.URL.Path)
	blocked := ct.dead || time.Now().Before(ct.until)
	ct.mu.Unlock()
	if blocked {
		return nil, errors.New("chaos: network partitioned")
	}
	return ct.base.RoundTrip(r)
}

// blockFor drops every request for the next d (heals automatically).
func (ct *chaosTransport) blockFor(d time.Duration) {
	ct.mu.Lock()
	if u := time.Now().Add(d); u.After(ct.until) {
		ct.until = u
	}
	ct.mu.Unlock()
}

// requests returns the requests recorded so far.
func (ct *chaosTransport) requests() []string {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return append([]string(nil), ct.sent...)
}

// kill blackholes the transport permanently.
func (ct *chaosTransport) kill() {
	ct.mu.Lock()
	ct.dead = true
	ct.mu.Unlock()
}

type testWorker struct {
	id     string
	w      *Worker
	chaos  *chaosTransport
	cancel context.CancelFunc
	done   chan struct{}
}

// startWorker runs a fleet worker against tf until stopped (or test end).
func startWorker(t *testing.T, tf *testFleet, id string, seed int64) *testWorker {
	t.Helper()
	return startWorkerURL(t, tf.ts.URL, id, seed)
}

// startWorkerURL is startWorker against an arbitrary coordinator URL (the
// restartable crash-recovery harness is not an httptest.Server).
func startWorkerURL(t *testing.T, url, id string, seed int64) *testWorker {
	t.Helper()
	chaos := &chaosTransport{base: http.DefaultTransport}
	w, err := NewWorker(WorkerOptions{
		Coordinator: url,
		ID:          id,
		Client:      &http.Client{Transport: chaos},
		Seed:        seed,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	tw := &testWorker{id: id, w: w, chaos: chaos, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(tw.done)
		_ = w.Run(ctx)
	}()
	t.Cleanup(tw.stop)
	return tw
}

// stop shuts the worker down gracefully and waits for it to exit.
func (tw *testWorker) stop() {
	tw.cancel()
	<-tw.done
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %s waiting for %s", timeout, what)
}

func waitWorkers(t *testing.T, tf *testFleet, n int) {
	t.Helper()
	waitFor(t, 10*time.Second, fmt.Sprintf("%d live workers", n), func() bool {
		return tf.coord.liveWorkers() >= n
	})
}

type submitResp struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
}

func submitJob(t *testing.T, tf *testFleet, body string) (int, submitResp) {
	t.Helper()
	return submitJobURL(t, tf.ts.URL, body)
}

func submitJobURL(t *testing.T, url, body string) (int, submitResp) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr submitResp
	data, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(data, &sr)
	return resp.StatusCode, sr
}

func mustSubmit(t *testing.T, tf *testFleet, body string) string {
	t.Helper()
	return mustSubmitURL(t, tf.ts.URL, body)
}

func mustSubmitURL(t *testing.T, url, body string) string {
	t.Helper()
	code, sr := submitJobURL(t, url, body)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: HTTP %d", code)
	}
	return sr.ID
}

func getJob(t *testing.T, tf *testFleet, id string) serve.JobStatus {
	t.Helper()
	return getJobURL(t, tf.ts.URL, id)
}

func getJobURL(t *testing.T, url, id string) serve.JobStatus {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitJobState(t *testing.T, tf *testFleet, id string, want serve.JobState, timeout time.Duration) serve.JobStatus {
	t.Helper()
	return waitJobStateURL(t, tf.ts.URL, id, want, timeout)
}

func waitJobStateURL(t *testing.T, url, id string, want serve.JobState, timeout time.Duration) serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st := getJobURL(t, url, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q) while waiting for %s", id, st.State, st.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach %s within %s", id, want, timeout)
	return serve.JobStatus{}
}

func synthJob(seed int64, measure int) string {
	return fmt.Sprintf(`{"kind":"synthetic","synthetic":{"design":"nord","width":4,"height":4,"pattern":"uniform","rate":0.05,"warmup":100,"measure":%d,"seed":%d}}`, measure, seed)
}

// localPayload executes body in-process, bypassing the fleet entirely:
// the byte-identical reference for every remote result.
func localPayload(t *testing.T, body string) []byte {
	t.Helper()
	var req serve.JobRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	payload, _, err := serve.ExecuteRequest(context.Background(), &req, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

func fleetMetric(t *testing.T, tf *testFleet, name string) float64 {
	t.Helper()
	return metricURL(t, tf.ts.URL, name)
}

func metricURL(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name)), 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not in /metrics output", name)
	return 0
}

// ---- unit: backoff ----

func TestBackoffBounds(t *testing.T) {
	base, max := 100*time.Millisecond, time.Second
	for attempt := 1; attempt <= 10; attempt++ {
		raw := base << uint(attempt-1)
		if raw <= 0 || raw > max {
			raw = max
		}
		// random=0 pins the deterministic floor; random→1 the jitter cap.
		if got := Backoff(base, max, attempt, 0); got != raw {
			t.Errorf("attempt %d: floor %s, want %s", attempt, got, raw)
		}
		if got := Backoff(base, max, attempt, 0.999); got < raw || got >= raw+raw/2+time.Millisecond {
			t.Errorf("attempt %d: jittered %s outside [%s, %s)", attempt, got, raw, raw+raw/2)
		}
	}
	// Degenerate inputs stay sane: attempt<1 behaves like 1, base<=0 gets
	// a floor, and huge attempts cannot overflow past max.
	if got := Backoff(base, max, 0, 0); got != base {
		t.Errorf("attempt 0: %s, want %s", got, base)
	}
	if got := Backoff(0, 0, 1, 0); got <= 0 {
		t.Errorf("zero base produced %s", got)
	}
	if got := Backoff(base, max, 63, 0); got != max {
		t.Errorf("attempt 63: %s, want cap %s", got, max)
	}
}

// TestTimingsFollowLeaseTTL pins the fleet timings derived from
// LeaseTTL: at the 10s default they are the values the coordinator has
// always used.
func TestTimingsFollowLeaseTTL(t *testing.T) {
	var o Options
	o.fill()
	for _, tc := range []struct {
		name      string
		got, want time.Duration
	}{
		{"heartbeat", o.heartbeat(), 3333333333},
		{"poll wait", o.pollWait(), 2 * time.Second},
		{"worker TTL", o.workerTTL(), 20 * time.Second},
		{"janitor", o.janitorEvery(), 2500 * time.Millisecond},
		{"retry base", o.retryBase(), 250 * time.Millisecond},
		{"retry max", o.retryMax(), 5 * time.Second},
	} {
		if tc.got != tc.want {
			t.Errorf("default %s = %s, want %s", tc.name, tc.got, tc.want)
		}
	}
	if got := (&Options{LeaseTTL: 20 * time.Millisecond}).janitorEvery(); got != 10*time.Millisecond {
		t.Errorf("janitor at a 20ms TTL = %s, want the 10ms floor", got)
	}
	if got := (&Options{LeaseTTL: time.Hour}).pollWait(); got != maxPollWait {
		t.Errorf("poll wait at a 1h TTL = %s, want the %s cap", got, maxPollWait)
	}
}

// TestRegistrationGrantsTTLTimings: a coordinator over an 800ms lease TTL
// grants a registering worker a heartbeat of TTL/3 and a lease poll of
// TTL/5.
func TestRegistrationGrantsTTLTimings(t *testing.T) {
	tf := newTestFleet(t, Options{LeaseTTL: 800 * time.Millisecond}, serve.Config{})
	b, _ := json.Marshal(RegisterRequest{WorkerID: "probe"})
	resp, err := http.Post(tf.ts.URL+"/fleet/v1/register", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reg RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	if reg.HeartbeatMs != 266 || reg.PollWaitMs != 160 {
		t.Errorf("registration granted heartbeat_ms %d and poll_wait_ms %d, want 266 and 160", reg.HeartbeatMs, reg.PollWaitMs)
	}
}

// TestWorkersCountsFallbackPool: a coordinator's capacity is its fallback
// pool plus its live workers, so a workerless one running three jobs on a
// pool of three reports three workers, three busy, on /metrics and
// /healthz alike.
func TestWorkersCountsFallbackPool(t *testing.T) {
	tf := newTestFleet(t, Options{LeaseTTL: 600 * time.Millisecond}, serve.Config{Workers: 3})
	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		ids = append(ids, mustSubmit(t, tf, synthJob(seed, 80_000_000)))
	}
	waitFor(t, 20*time.Second, "3 jobs running on the fallback pool", func() bool {
		return tf.coord.Busy() == 3
	})
	if got := tf.coord.Workers(); got != 3 {
		t.Errorf("Workers() = %d, want the fallback pool's 3", got)
	}
	if v := fleetMetric(t, tf, "nord_workers"); v != 3 {
		t.Errorf("nord_workers = %v, want 3", v)
	}
	if v := fleetMetric(t, tf, "nord_workers_busy"); v != 3 {
		t.Errorf("nord_workers_busy = %v, want 3", v)
	}
	resp, err := http.Get(tf.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Workers int `json:"workers"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || health.Workers != 3 {
		t.Errorf("/healthz workers = %d (%v), want 3", health.Workers, err)
	}
	for _, id := range ids {
		req, _ := http.NewRequest(http.MethodDelete, tf.ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
}

// ---- integration: happy path ----

// TestFleetEndToEndMatchesLocal runs four jobs through a two-worker
// fleet and checks the acceptance criterion that matters most: results
// that crossed the wire are byte-identical to single-process runs, and
// every job reached a terminal state exactly once.
func TestFleetEndToEndMatchesLocal(t *testing.T) {
	opts := Options{
		LeaseTTL: 600 * time.Millisecond,
		Seed:     1,
	}
	tf := newTestFleet(t, opts, serve.Config{})
	startWorker(t, tf, "w1", 11)
	startWorker(t, tf, "w2", 12)
	waitWorkers(t, tf, 2)

	const n = 4
	bodies := make([]string, n)
	ids := make([]string, n)
	for i := range bodies {
		bodies[i] = synthJob(int64(100+i), 20_000)
		ids[i] = mustSubmit(t, tf, bodies[i])
	}
	for i, id := range ids {
		st := waitJobState(t, tf, id, serve.JobDone, 120*time.Second)
		if want := localPayload(t, bodies[i]); !bytes.Equal(st.Result, want) {
			t.Errorf("job %s: fleet result differs from local run\nfleet: %s\nlocal: %s", id, st.Result, want)
		}
	}

	m := tf.srv.Metrics()
	if done, failed, canceled := m.JobsDone.Load(), m.JobsFailed.Load(), m.JobsCanceled.Load(); done != n || failed != 0 || canceled != 0 {
		t.Errorf("terminal accounting done=%d failed=%d canceled=%d, want %d/0/0", done, failed, canceled, n)
	}
	if local := tf.coord.localJobs.Load(); local != 0 {
		t.Errorf("%d jobs leaked to the local pool with two workers live", local)
	}

	// A re-submission is a cache hit serving the remote result's bytes.
	code, sr := submitJob(t, tf, bodies[0])
	if code != http.StatusOK || !sr.Cached {
		t.Fatalf("resubmit: HTTP %d cached=%v, want 200 + cache hit", code, sr.Cached)
	}
	if st := getJob(t, tf, sr.ID); !bytes.Equal(st.Result, localPayload(t, bodies[0])) {
		t.Errorf("cached result differs from local run")
	}
}

// ---- integration: failure handling ----

// TestFleetFailoverWithinLeaseTTL kills a worker (blackholed transport +
// canceled process) while it holds a lease, and requires the coordinator
// to requeue the job within roughly one lease TTL and a second worker to
// finish it — the ISSUE's headline failover criterion.
func TestFleetFailoverWithinLeaseTTL(t *testing.T) {
	opts := Options{
		LeaseTTL:    400 * time.Millisecond,
		MaxAttempts: 6,
		Seed:        2,
	}
	tf := newTestFleet(t, opts, serve.Config{})
	w1 := startWorker(t, tf, "w1", 21)
	waitWorkers(t, tf, 1)

	body := synthJob(7, 400_000)
	id := mustSubmit(t, tf, body)
	waitJobState(t, tf, id, serve.JobRunning, 30*time.Second)

	// Kill w1 mid-job: no give-back can get through, so recovery must
	// come from lease expiry.
	w1.chaos.kill()
	w1.cancel()
	killedAt := time.Now()
	startWorker(t, tf, "w2", 22)

	waitFor(t, 3*opts.LeaseTTL, "lease expiry requeue", func() bool {
		return tf.coord.requeues.Load() >= 1
	})
	if lag := time.Since(killedAt); lag > 3*opts.LeaseTTL {
		t.Errorf("requeue took %s, want within ~one lease TTL (%s)", lag, opts.LeaseTTL)
	}

	st := waitJobState(t, tf, id, serve.JobDone, 120*time.Second)
	if want := localPayload(t, body); !bytes.Equal(st.Result, want) {
		t.Errorf("failover result differs from local run")
	}
	if tf.coord.leaseExpiries.Load() == 0 {
		t.Error("no lease expiry recorded for the killed worker")
	}
	if local := tf.coord.localJobs.Load(); local != 0 {
		t.Errorf("job fell back to the local pool (%d) instead of failing over to w2", local)
	}
	m := tf.srv.Metrics()
	if done := m.JobsDone.Load(); done != 1 {
		t.Errorf("JobsDone=%d, want exactly 1 (no double terminal transition)", done)
	}
}

// TestFleetGracefulGiveBack stops a worker cleanly mid-job: the shutdown
// path reports the job back (requeue) so it moves to the other worker
// immediately, without waiting out the lease TTL.
func TestFleetGracefulGiveBack(t *testing.T) {
	opts := Options{
		LeaseTTL: 10 * time.Second, // long: expiry would blow the test timeout
		Seed:     3,
	}
	tf := newTestFleet(t, opts, serve.Config{})
	w1 := startWorker(t, tf, "w1", 31)
	waitWorkers(t, tf, 1)

	body := synthJob(8, 400_000)
	id := mustSubmit(t, tf, body)
	waitJobState(t, tf, id, serve.JobRunning, 30*time.Second)

	// Bring up the successor before stopping w1 so the fleet never goes
	// workerless (which would legitimately divert the job to the local
	// pool and mask the give-back path).
	startWorker(t, tf, "w2", 32)
	waitWorkers(t, tf, 2)
	w1.stop()

	st := waitJobState(t, tf, id, serve.JobDone, 120*time.Second)
	if want := localPayload(t, body); !bytes.Equal(st.Result, want) {
		t.Errorf("result after give-back differs from local run")
	}
	if tf.coord.requeues.Load() == 0 {
		t.Error("graceful shutdown did not requeue the in-flight job")
	}
	if exp := tf.coord.leaseExpiries.Load(); exp != 0 {
		t.Errorf("%d lease expiries; give-back should requeue without one", exp)
	}
	if local := tf.coord.localJobs.Load(); local != 0 {
		t.Errorf("job ran on the local pool (%d) instead of the second worker", local)
	}
}

// TestWorkerSpeaksOnlyFleetProtocol records every request a worker sends
// while it completes one job and gives a second back on a graceful stop:
// all of them go to /fleet/v1/. A worker's result reaches the
// coordinator's cache through the result report alone, never through a
// side channel such as /v1/cache/{key}.
func TestWorkerSpeaksOnlyFleetProtocol(t *testing.T) {
	opts := Options{
		LeaseTTL: 10 * time.Second,
		Seed:     8,
	}
	tf := newTestFleet(t, opts, serve.Config{})
	tw := startWorker(t, tf, "w1", 81)
	waitWorkers(t, tf, 1)

	body := synthJob(13, 5_000)
	st := waitJobState(t, tf, mustSubmit(t, tf, body), serve.JobDone, 60*time.Second)
	if !bytes.Equal(st.Result, localPayload(t, body)) {
		t.Error("fleet result differs from local run")
	}

	long := mustSubmit(t, tf, synthJob(14, 80_000_000))
	waitJobState(t, tf, long, serve.JobRunning, 30*time.Second)
	tw.stop()
	if tf.coord.requeues.Load() == 0 {
		t.Error("graceful stop did not give the running job back")
	}
	// Nothing is left to run it; cancel so the server drains promptly.
	req, _ := http.NewRequest(http.MethodDelete, tf.ts.URL+"/v1/jobs/"+long, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	sent := tw.chaos.requests()
	results := 0
	for _, r := range sent {
		if !strings.HasPrefix(r, "POST /fleet/v1/") {
			t.Errorf("worker sent %q, outside the fleet protocol", r)
		}
		if r == "POST /fleet/v1/result" {
			results++
		}
	}
	if results != 2 {
		t.Errorf("%d result reports, want 2 (one done, one give-back): %v", results, sent)
	}
}

// TestFleetLocalFallbackNoWorkers submits to a workerless coordinator:
// it must degrade to in-process execution instead of queueing forever.
func TestFleetLocalFallbackNoWorkers(t *testing.T) {
	opts := Options{
		LeaseTTL: 300 * time.Millisecond,
		Seed:     4,
	}
	tf := newTestFleet(t, opts, serve.Config{Workers: 2})

	body := synthJob(9, 5_000)
	id := mustSubmit(t, tf, body)
	st := waitJobState(t, tf, id, serve.JobDone, 60*time.Second)
	if want := localPayload(t, body); !bytes.Equal(st.Result, want) {
		t.Errorf("local-fallback result differs from direct run")
	}
	if local := tf.coord.localJobs.Load(); local != 1 {
		t.Errorf("localJobs=%d, want 1", local)
	}
	if v := fleetMetric(t, tf, "nord_fleet_workers_live"); v != 0 {
		t.Errorf("nord_fleet_workers_live=%v, want 0", v)
	}
	if v := fleetMetric(t, tf, "nord_fleet_local_jobs_total"); v != 1 {
		t.Errorf("nord_fleet_local_jobs_total=%v, want 1", v)
	}
}

// TestFleetRunsUnderServerConfig builds a coordinator from zero Options
// over a server with a pool of 3, a queue bound and a deadline: every
// setting a job runs under is the server's. With no live worker, 3 jobs
// run at once on the fallback pool and QueueDepth more wait there; with a
// worker registered, the fleet queue holds QueueDepth jobs and a lease
// grant carries the server's JobDeadline.
func TestFleetRunsUnderServerConfig(t *testing.T) {
	const (
		queue    = 2
		deadline = 90 * time.Second
	)
	tf := newTestFleet(t, Options{}, serve.Config{Workers: 3, QueueDepth: queue, JobDeadline: deadline})
	endless := func(seed int64) string { return synthJob(seed, 80_000_000) }
	cancelJob := func(id string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, tf.ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	post := func(path string, body, out any) int {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := http.Post(tf.ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}

	// Workerless: the fallback pool is serve.Config.Workers wide and its
	// queue serve.Config.QueueDepth deep.
	var local []string
	for seed := int64(1); seed <= 3; seed++ {
		local = append(local, mustSubmit(t, tf, endless(seed)))
	}
	waitFor(t, 20*time.Second, "3 jobs running on the fallback pool", func() bool {
		return tf.coord.local.Busy() == 3
	})
	for seed := int64(4); seed < 4+queue; seed++ {
		local = append(local, mustSubmit(t, tf, endless(seed)))
	}
	if code, _ := submitJob(t, tf, endless(50)); code != http.StatusTooManyRequests {
		t.Errorf("fallback submit past QueueDepth: HTTP %d, want 429", code)
	}
	for _, id := range local {
		cancelJob(id)
	}

	// A registered worker: the fleet queue holds QueueDepth jobs, and a
	// lease grant carries the server's deadline.
	if code := post("/fleet/v1/register", RegisterRequest{WorkerID: "probe"}, nil); code != http.StatusOK {
		t.Fatalf("register: HTTP %d", code)
	}
	var queued []string
	for seed := int64(10); seed < 10+queue; seed++ {
		code, sr := submitJob(t, tf, endless(seed))
		if code != http.StatusAccepted {
			t.Fatalf("fleet submit %d: HTTP %d, want 202", len(queued)+1, code)
		}
		queued = append(queued, sr.ID)
	}
	if code, _ := submitJob(t, tf, endless(60)); code != http.StatusTooManyRequests {
		t.Errorf("fleet submit past QueueDepth: HTTP %d, want 429", code)
	}
	var grant LeaseGrant
	if code := post("/fleet/v1/lease", LeaseRequest{WorkerID: "probe"}, &grant); code != http.StatusOK {
		t.Fatalf("lease: HTTP %d", code)
	}
	if want := deadline.Milliseconds(); grant.DeadlineMs != want {
		t.Errorf("lease grant DeadlineMs=%d, want the server's JobDeadline %d", grant.DeadlineMs, want)
	}

	// Wind down: the leased job reports canceled, as a worker would after
	// its heartbeat said so; a second lease poll reaps the canceled rest.
	for _, id := range queued {
		cancelJob(id)
	}
	post("/fleet/v1/result", ResultRequest{WorkerID: "probe", JobID: grant.JobID, Lease: grant.Lease,
		Outcome: serve.RemoteOutcome{Canceled: true, Error: "canceled"}}, nil)
	post("/fleet/v1/lease", LeaseRequest{WorkerID: "probe"}, nil)
	post("/fleet/v1/unregister", RegisterRequest{WorkerID: "probe"}, nil)
}

// TestFleetCancelPropagates cancels a job leased to a remote worker: the
// next heartbeat carries the cancellation, the worker stops within the
// sim layer's poll bound, and the job lands in canceled exactly once.
// It also pins remote progress reporting: heartbeat snapshots feed the
// job's status like a local run's would.
func TestFleetCancelPropagates(t *testing.T) {
	opts := Options{
		LeaseTTL: 450 * time.Millisecond,
		Seed:     5,
	}
	tf := newTestFleet(t, opts, serve.Config{})
	startWorker(t, tf, "w1", 51)
	waitWorkers(t, tf, 1)

	// Effectively endless: only cancellation ends it.
	id := mustSubmit(t, tf, synthJob(10, 80_000_000))
	waitJobState(t, tf, id, serve.JobRunning, 30*time.Second)
	waitFor(t, 30*time.Second, "heartbeat-carried progress", func() bool {
		return getJob(t, tf, id).Progress != nil
	})

	req, _ := http.NewRequest(http.MethodDelete, tf.ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", resp.StatusCode)
	}

	waitFor(t, 30*time.Second, "job canceled", func() bool {
		return getJob(t, tf, id).State == serve.JobCanceled
	})
	if canceled := tf.srv.Metrics().JobsCanceled.Load(); canceled != 1 {
		t.Errorf("JobsCanceled=%d, want exactly 1", canceled)
	}
}

// TestFleetDeadlineFailsJob checks the server's per-job execution
// deadline (serve.Config.JobDeadline) rides the lease grant to the
// worker: a run that blows its wall-clock budget comes back failed (not
// canceled), with the deadline named.
func TestFleetDeadlineFailsJob(t *testing.T) {
	opts := Options{
		LeaseTTL: 600 * time.Millisecond,
		Seed:     6,
	}
	tf := newTestFleet(t, opts, serve.Config{JobDeadline: 200 * time.Millisecond})
	startWorker(t, tf, "w1", 61)
	waitWorkers(t, tf, 1)

	id := mustSubmit(t, tf, synthJob(11, 80_000_000))
	waitFor(t, 60*time.Second, "deadline failure", func() bool {
		return getJob(t, tf, id).State == serve.JobFailed
	})
	if st := getJob(t, tf, id); !strings.Contains(st.Error, "deadline") {
		t.Errorf("failure error %q does not name the deadline", st.Error)
	}
	m := tf.srv.Metrics()
	if failed, done := m.JobsFailed.Load(), m.JobsDone.Load(); failed != 1 || done != 0 {
		t.Errorf("failed=%d done=%d, want 1/0", failed, done)
	}
}

// TestFleetRetriesExhausted registers a "leech" worker that leases jobs
// but never heartbeats or reports — the wedged-worker failure mode. The
// job must cycle through MaxAttempts lease grants (each expiring) and
// then fail with a diagnosable error instead of looping forever.
func TestFleetRetriesExhausted(t *testing.T) {
	opts := Options{
		LeaseTTL:    100 * time.Millisecond,
		MaxAttempts: 2,
		Seed:        7,
	}
	tf := newTestFleet(t, opts, serve.Config{})

	// The leech: registers and leases over the raw protocol, then sits on
	// every grant. Its polling keeps it "live", so the coordinator never
	// falls back to local execution — the retry budget must decide.
	leechCtx, stopLeech := context.WithCancel(context.Background())
	defer stopLeech()
	leechDone := make(chan struct{})
	post := func(path string, body any, out any) error {
		b, _ := json.Marshal(body)
		req, err := http.NewRequestWithContext(leechCtx, http.MethodPost, tf.ts.URL+path, bytes.NewReader(b))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if out != nil && resp.StatusCode == http.StatusOK {
			return json.NewDecoder(resp.Body).Decode(out)
		}
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := post("/fleet/v1/register", RegisterRequest{WorkerID: "leech"}, nil); err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(leechDone)
		for leechCtx.Err() == nil {
			var grant LeaseGrant
			_ = post("/fleet/v1/lease", LeaseRequest{WorkerID: "leech", WaitMs: 50}, &grant)
		}
	}()
	t.Cleanup(func() { stopLeech(); <-leechDone })

	id := mustSubmit(t, tf, synthJob(12, 5_000))
	waitFor(t, 60*time.Second, "retries exhausted", func() bool {
		return getJob(t, tf, id).State == serve.JobFailed
	})
	st := getJob(t, tf, id)
	if !strings.Contains(st.Error, "lease attempts") {
		t.Errorf("exhaustion error %q does not explain the lease attempts", st.Error)
	}
	if got := tf.coord.retriesExhausted.Load(); got != 1 {
		t.Errorf("retriesExhausted=%d, want 1", got)
	}
	if granted := tf.coord.leasesGranted.Load(); granted != uint64(opts.MaxAttempts) {
		t.Errorf("leasesGranted=%d, want exactly MaxAttempts=%d", granted, opts.MaxAttempts)
	}
	if failed := tf.srv.Metrics().JobsFailed.Load(); failed != 1 {
		t.Errorf("JobsFailed=%d, want exactly 1", failed)
	}
}
