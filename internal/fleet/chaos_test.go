package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nord/internal/serve"
)

// chaosEvent is one scheduled fault injection.
type chaosEvent struct {
	at     time.Duration // since schedule start
	kind   string        // "kill", "stall", "partition"
	target int           // worker index
	dur    time.Duration // outage length (stall/partition)
}

// chaosSchedule derives a deterministic fault schedule from seed: kills
// (process death: canceled run + permanently blackholed transport),
// stalls (short network outage, shorter than the lease TTL) and
// partitions (long outage, guaranteed to expire any held lease). Worker
// 0 is never killed so the fleet always retains capacity; each other
// worker dies at most once.
func chaosSchedule(seed int64, workers int, leaseTTL time.Duration) []chaosEvent {
	rng := rand.New(rand.NewSource(seed))
	kinds := []string{"stall", "partition", "kill", "stall", "kill", "partition"}
	var (
		events []chaosEvent
		at     time.Duration
		killed = map[int]bool{}
	)
	for _, kind := range kinds {
		at += leaseTTL/2 + time.Duration(rng.Int63n(int64(leaseTTL)))
		ev := chaosEvent{at: at, kind: kind}
		switch kind {
		case "kill":
			ev.target = 1 + rng.Intn(workers-1)
			if killed[ev.target] { // each worker dies once; retarget or skip
				ev.target = 1 + (ev.target % (workers - 1))
			}
			if killed[ev.target] {
				continue
			}
			killed[ev.target] = true
		case "stall":
			ev.target = rng.Intn(workers)
			ev.dur = leaseTTL/4 + time.Duration(rng.Int63n(int64(leaseTTL/2)))
		case "partition":
			ev.target = rng.Intn(workers)
			ev.dur = 2*leaseTTL + time.Duration(rng.Int63n(int64(leaseTTL)))
		}
		events = append(events, ev)
	}
	return events
}

// TestFleetChaosExactlyOnce is the ISSUE's chaos harness: a seeded
// kill/stall/partition schedule against a three-worker fleet, asserting
// that every submitted job reaches a terminal state exactly once and
// that every result is byte-identical to a single-process run. Run it
// under -race (the CI soak job does).
func TestFleetChaosExactlyOnce(t *testing.T) {
	const (
		seed     = 7
		nWorkers = 3
	)
	// LeaseTTL is generous relative to the heartbeat period (TTL/3) so
	// that CPU contention on small CI hosts cannot expire a healthy
	// worker's lease; only injected faults do.
	opts := Options{
		LeaseTTL:    1200 * time.Millisecond,
		MaxAttempts: 12, // generous: chaos must delay jobs, never fail them
		Seed:        seed,
	}
	tf := newTestFleet(t, opts, serve.Config{Workers: 2})
	workers := make([]*testWorker, nWorkers)
	for i := range workers {
		workers[i] = startWorker(t, tf, []string{"w0", "w1", "w2"}[i], int64(70+i))
	}
	waitWorkers(t, tf, nWorkers)

	// The job mix: mostly short runs plus two long ones that straddle
	// several chaos events regardless of host speed.
	var bodies []string
	for s := int64(1); s <= 6; s++ {
		bodies = append(bodies, synthJob(s, 80_000))
	}
	bodies = append(bodies, synthJob(9, 400_000), synthJob(10, 400_000))

	ids := make([]string, len(bodies))
	for i, body := range bodies {
		ids[i] = mustSubmit(t, tf, body)
	}

	// Run the fault schedule.
	start := time.Now()
	for _, ev := range chaosSchedule(seed, nWorkers, opts.LeaseTTL) {
		if d := ev.at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		w := workers[ev.target]
		t.Logf("chaos +%s: %s %s (dur %s)", ev.at.Round(time.Millisecond), ev.kind, w.id, ev.dur)
		switch ev.kind {
		case "kill":
			w.chaos.kill()
			w.cancel()
		default:
			w.chaos.blockFor(ev.dur)
		}
	}

	// Every job must land in done — chaos may only slow them down.
	for _, id := range ids {
		waitJobState(t, tf, id, serve.JobDone, 180*time.Second)
	}
	// Reference results, computed in-process after the fleet phase (they
	// are deterministic, so ordering is irrelevant; running them later
	// keeps the CPU free for worker heartbeats during the chaos window).
	for i, id := range ids {
		st := getJob(t, tf, id)
		if !bytes.Equal(st.Result, localPayload(t, bodies[i])) {
			t.Errorf("job %s (%s): result diverged from single-process run", id, bodies[i])
		}
	}

	// Exactly-once terminal accounting: the counters only move on the
	// one finish() call that performs the transition, so any duplicate
	// or lost terminal state shows up as a count mismatch.
	m := tf.srv.Metrics()
	done, failed, canceled := m.JobsDone.Load(), m.JobsFailed.Load(), m.JobsCanceled.Load()
	if int(done) != len(bodies) || failed != 0 || canceled != 0 {
		t.Errorf("terminal accounting done=%d failed=%d canceled=%d, want %d/0/0",
			done, failed, canceled, len(bodies))
	}

	// The coordinator must end quiescent: no tracked jobs, no leases.
	tf.coord.mu.Lock()
	tracked, queued := len(tf.coord.jobs), len(tf.coord.queue)
	tf.coord.mu.Unlock()
	if tracked != 0 || queued != 0 {
		t.Errorf("coordinator not quiescent: %d tracked, %d queued", tracked, queued)
	}
	t.Logf("chaos run: %d leases, %d expiries, %d requeues, %d stale (%d accepted), %d local",
		tf.coord.leasesGranted.Load(), tf.coord.leaseExpiries.Load(), tf.coord.requeues.Load(),
		tf.coord.staleResults.Load(), tf.coord.staleAccepted.Load(), tf.coord.localJobs.Load())
}

// ---- crash-durable coordinator harness ----

// durableFleet is the restartable counterpart of testFleet: a coordinator
// with a journal and a cache spill directory, listening on a real (fixed)
// address so a restarted incarnation can come back where its workers and
// clients expect it. crash() emulates SIGKILL; boot() after crash() is the
// recovery path under test.
type durableFleet struct {
	t          *testing.T
	opts       Options
	cfg        serve.Config
	addr       string // pinned after the first boot
	cacheDir   string
	journalDir string

	srv     *serve.Server
	coord   *Coordinator
	journal *Journal
	hsrv    *http.Server
	url     string
	crashed bool
}

func startDurableFleet(t *testing.T, opts Options, cfg serve.Config) *durableFleet {
	t.Helper()
	df := &durableFleet{
		t: t, opts: opts, cfg: cfg,
		cacheDir:   t.TempDir(),
		journalDir: t.TempDir(),
	}
	df.boot()
	t.Cleanup(df.shutdown)
	return df
}

// boot starts a fresh incarnation over the shared journal and cache
// directories (the first call picks the address, later calls rebind it).
func (df *durableFleet) boot() {
	t := df.t
	t.Helper()
	jl, err := OpenJournal(df.journalDir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := df.cfg
	cfg.CacheDir = df.cacheDir
	opts := df.opts
	opts.Journal = jl
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
	addr := df.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	for i := 0; ; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i >= 200 {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	df.addr = ln.Addr().String()
	df.url = "http://" + df.addr
	df.srv, df.coord, df.journal = srv, coord, jl
	df.hsrv = &http.Server{Handler: mux}
	go func() { _ = df.hsrv.Serve(ln) }()
	df.crashed = false
	// Drop pooled keep-alive connections to the dead incarnation: Go's
	// transport does not retry non-idempotent requests on stale conns.
	http.DefaultClient.CloseIdleConnections()
}

// crash emulates SIGKILL as closely as one process can: the listener dies
// mid-connection, the janitor stops, and the journal is wedged so the
// dying incarnation can never append after the next one owns the files.
// Worker processes are untouched — they survive real coordinator crashes
// too, and their heartbeats against the restarted incarnation come back
// StatusLost, exactly like production.
func (df *durableFleet) crash() {
	df.hsrv.Close()
	df.coord.stopOnce.Do(func() { close(df.coord.stopJanitor) })
	df.journal.disable()
	df.crashed = true
}

// restart is crash-then-boot; callers that crashed already just boot().
func (df *durableFleet) restart() {
	df.t.Helper()
	if !df.crashed {
		df.crash()
	}
	df.boot()
}

func (df *durableFleet) shutdown() {
	df.hsrv.Close()
	if df.crashed {
		return // nothing graceful left in a crashed incarnation
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := df.srv.Shutdown(ctx); err != nil {
		df.t.Errorf("shutdown: %v", err)
	}
}

// healthzURL fetches /healthz and returns the HTTP code, the status field
// and the degraded notes.
func healthzURL(t *testing.T, url string) (int, string, []string) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Status   string   `json:"status"`
		Degraded []string `json:"degraded"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body.Status, body.Degraded
}

// hasNote reports whether any degraded note carries the given token.
func hasNote(notes []string, token string) bool {
	for _, n := range notes {
		if strings.HasPrefix(n, token) {
			return true
		}
	}
	return false
}

// TestCoordinatorCrashRestartMidJob is the tentpole's headline scenario:
// a journaled coordinator is killed while jobs are mid-flight on live
// workers, restarts on the same address over the same journal and cache
// directories, and every job — finished or not at the instant of death —
// reaches done exactly once with bytes identical to a single-process run.
// Clients keep polling their original job IDs across the crash and never
// learn it happened.
func TestCoordinatorCrashRestartMidJob(t *testing.T) {
	opts := Options{
		LeaseTTL:    1200 * time.Millisecond,
		MaxAttempts: 12,
		Seed:        11,
	}
	df := startDurableFleet(t, opts, serve.Config{Workers: 2})
	startWorkerURL(t, df.url, "w1", 111)
	startWorkerURL(t, df.url, "w2", 112)
	waitFor(t, 10*time.Second, "2 live workers", func() bool { return df.coord.liveWorkers() >= 2 })

	// Three short jobs that finish before the crash, two long ones that
	// are mid-flight when it hits.
	bodies := []string{synthJob(41, 60_000), synthJob(42, 60_000), synthJob(43, 60_000),
		synthJob(44, 600_000), synthJob(45, 600_000)}
	ids := make([]string, len(bodies))
	for i, b := range bodies {
		ids[i] = mustSubmitURL(t, df.url, b)
	}
	for _, id := range ids[:3] {
		waitJobStateURL(t, df.url, id, serve.JobDone, 120*time.Second)
	}
	waitFor(t, 60*time.Second, "a long job running at the crash instant", func() bool {
		return getJobURL(t, df.url, ids[3]).State == serve.JobRunning ||
			getJobURL(t, df.url, ids[4]).State == serve.JobRunning
	})

	df.crash()
	df.boot()

	// Every job lands done on the restarted incarnation, byte-identical.
	for i, id := range ids {
		st := waitJobStateURL(t, df.url, id, serve.JobDone, 180*time.Second)
		if !bytes.Equal(st.Result, localPayload(t, bodies[i])) {
			t.Errorf("job %s: result diverged from single-process run after crash recovery", id)
		}
	}

	// Recovery accounting: everything journaled was either replayed
	// terminal or requeued — nothing lost, nothing invented — and at least
	// one job (a long one) was genuinely requeued and re-executed.
	replayed, requeued := df.coord.journalReplayed.Load(), df.coord.journalRequeued.Load()
	if replayed+requeued != uint64(len(bodies)) {
		t.Errorf("recovery split replayed=%d requeued=%d, want %d total", replayed, requeued, len(bodies))
	}
	if requeued == 0 {
		t.Error("no job was requeued on recovery despite crashing mid-flight")
	}
	if v := metricURL(t, df.url, "nord_fleet_journal_requeues_on_recovery_total"); uint64(v) != requeued {
		t.Errorf("nord_fleet_journal_requeues_on_recovery_total=%v, want %d", v, requeued)
	}

	// Exactly-once across the process boundary: the restarted incarnation
	// finished only the requeued jobs; replayed ones kept the dead
	// process's terminal transition (rehydrated, not re-run).
	m := df.srv.Metrics()
	if done, failed, canceled := m.JobsDone.Load(), m.JobsFailed.Load(), m.JobsCanceled.Load(); done != requeued || failed != 0 || canceled != 0 {
		t.Errorf("post-restart accounting done=%d failed=%d canceled=%d, want %d/0/0", done, failed, canceled, requeued)
	}
	t.Logf("crash recovery: %d replayed terminal, %d requeued, %d stale accepted",
		replayed, requeued, df.coord.staleAccepted.Load())
}

// TestCacheCorruptionQuarantinedAndRecomputed corrupts a done job's spill
// file between crash and restart: recovery must quarantine the bad bytes
// (renamed *.corrupt, counted, never served), then requeue and recompute
// the job to the identical payload. It also pins the workerless /healthz
// degraded note along the way.
func TestCacheCorruptionQuarantinedAndRecomputed(t *testing.T) {
	opts := Options{
		LeaseTTL: 600 * time.Millisecond,
		Seed:     12,
	}
	df := startDurableFleet(t, opts, serve.Config{Workers: 2})

	// Workerless: /healthz must say alive-but-degraded, not ok.
	if code, status, notes := healthzURL(t, df.url); code != http.StatusOK || status != "degraded" || !hasNote(notes, "no_live_workers") {
		t.Errorf("workerless healthz = %d %q %v, want 200 degraded + no_live_workers", code, status, notes)
	}

	body := synthJob(51, 60_000)
	id := mustSubmitURL(t, df.url, body)
	st := waitJobStateURL(t, df.url, id, serve.JobDone, 60*time.Second)
	want := append([]byte(nil), st.Result...)

	// Write-through made the result durable at Put time.
	spill := filepath.Join(df.cacheDir, st.Key+".json")
	if _, err := os.Stat(spill); err != nil {
		t.Fatalf("done job's spill missing: %v", err)
	}

	df.crash()
	good, err := os.ReadFile(spill)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 1
	if err := os.WriteFile(spill, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	df.boot()

	// Recovery found the corruption, quarantined it, and recomputed.
	st2 := waitJobStateURL(t, df.url, id, serve.JobDone, 60*time.Second)
	if !bytes.Equal(st2.Result, want) {
		t.Error("recomputed result differs from the pre-crash payload")
	}
	qdata, err := os.ReadFile(spill + ".corrupt")
	if err != nil {
		t.Fatalf("corrupt spill not quarantined: %v", err)
	}
	if !bytes.Equal(qdata, bad) {
		t.Error("quarantine mangled the evidence bytes")
	}
	if v := metricURL(t, df.url, "nord_cache_corrupt_quarantined_total"); v < 1 {
		t.Errorf("nord_cache_corrupt_quarantined_total=%v, want >=1", v)
	}
	if requeued := df.coord.journalRequeued.Load(); requeued != 1 {
		t.Errorf("journalRequeued=%d, want 1 (the corrupted done job)", requeued)
	}
	if replayed := df.coord.journalReplayed.Load(); replayed != 0 {
		t.Errorf("journalReplayed=%d, want 0 (its payload was unrecoverable)", replayed)
	}
	// The recomputation refilled the spill with valid bytes.
	if _, err := os.Stat(spill); err != nil {
		t.Errorf("recomputed spill not rewritten: %v", err)
	}
}

// TestRestartUnderAliasKeyRecomputes boots over the journal and spill
// directory of a process that keyed alias spellings apart: a done job
// whose request wrote out a default (wakeup_latency 12) and set a knob
// No_PG never reads (gate_idle 6) was journaled, and its payload spilled,
// under a key nobody mints any more. The request now resolves onto the
// canonical key, nothing is cached there, and the job takes the ordinary
// lost-payload path — requeue, recompute — to the bytes a run of the
// canonical spelling produces. The old spill is orphaned: never read, so
// never wrong.
func TestRestartUnderAliasKeyRecomputes(t *testing.T) {
	const (
		aliasBody = `{"kind":"synthetic","synthetic":{"design":"no_pg","width":4,"height":4,"pattern":"uniform","rate":0.05,"warmup":100,"measure":20000,"seed":61,"wakeup_latency":12,"gate_idle":6}}`
		canonBody = `{"kind":"synthetic","synthetic":{"design":"no_pg","width":4,"height":4,"pattern":"uniform","rate":0.05,"warmup":100,"measure":20000,"seed":61}}`
		// What 883452b minted for the two bodies.
		aliasKey = "3af096c3f88cd57f66fbd1e057b87d6525cb7f26468cd83a8c8ea8b14a057308"
		canonKey = "514ec758405a56a17f5cd6f29b503e612906b7a1fe85de8178e8f0399e99eb70"
	)
	df := &durableFleet{
		t:          t,
		opts:       Options{LeaseTTL: 600 * time.Millisecond, Seed: 17},
		cfg:        serve.Config{Workers: 2},
		cacheDir:   t.TempDir(),
		journalDir: t.TempDir(),
	}
	jl, err := OpenJournal(df.journalDir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jl.Submit("j7", aliasKey, []byte(aliasBody))
	jl.Terminal("j7", string(serve.JobDone), "")
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(df.cacheDir, aliasKey+".json")
	if err := os.WriteFile(orphan, []byte("whatever the old process spilled"), 0o644); err != nil {
		t.Fatal(err)
	}

	df.boot()
	t.Cleanup(df.shutdown)
	st := waitJobStateURL(t, df.url, "j7", serve.JobDone, 60*time.Second)
	if st.Key != canonKey {
		t.Errorf("restored job keyed %s, want the canonical spelling's %s", st.Key, canonKey)
	}
	if !bytes.Equal(st.Result, localPayload(t, canonBody)) {
		t.Error("recomputed payload differs from a run of the canonical spelling")
	}
	if requeued, replayed := df.coord.journalRequeued.Load(), df.coord.journalReplayed.Load(); requeued != 1 || replayed != 0 {
		t.Errorf("journalRequeued=%d journalReplayed=%d, want 1 and 0 (payload not under the canonical key)", requeued, replayed)
	}
	if data, err := os.ReadFile(orphan); err != nil || string(data) != "whatever the old process spilled" {
		t.Errorf("the orphaned spill was touched: %q, %v", data, err)
	}
	// Either spelling now finds the recomputed result.
	for _, body := range []string{canonBody, aliasBody} {
		if code, sr := submitJobURL(t, df.url, body); code != http.StatusOK || !sr.Cached || sr.ID != "j7" {
			t.Errorf("resubmission = %d %+v, want it served by j7", code, sr)
		}
	}
}

// TestCoordinatorRestartStaleLeaseResultAccepted pins epoch continuity: a
// lease granted by the dead incarnation is reported against the restarted
// one. The restarted coordinator has never issued that lease — epochs
// resume above everything journaled, so it cannot collide with a fresh
// grant — and the stale-success reconciliation path accepts the
// deterministic payload instead of wasting the completed work.
func TestCoordinatorRestartStaleLeaseResultAccepted(t *testing.T) {
	opts := Options{
		LeaseTTL:    5 * time.Second, // sweeps every 1.25s: the ghost must beat the local steal
		MaxAttempts: 4,
		Seed:        13,
	}
	df := startDurableFleet(t, opts, serve.Config{})

	post := func(path string, body, out any) error {
		b, _ := json.Marshal(body)
		resp, err := http.Post(df.url+path, "application/json", bytes.NewReader(b))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if out != nil && resp.StatusCode == http.StatusOK {
			return json.NewDecoder(resp.Body).Decode(out)
		}
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
			return fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
		}
		return nil
	}

	// The ghost worker leases the job over the raw protocol and then the
	// coordinator dies under it.
	if err := post("/fleet/v1/register", RegisterRequest{WorkerID: "ghost"}, nil); err != nil {
		t.Fatal(err)
	}
	body := synthJob(61, 40_000)
	id := mustSubmitURL(t, df.url, body)
	var grant LeaseGrant
	waitFor(t, 10*time.Second, "ghost lease grant", func() bool {
		var g LeaseGrant
		if err := post("/fleet/v1/lease", LeaseRequest{WorkerID: "ghost", WaitMs: 500}, &g); err == nil && g.JobID == id {
			grant = g
			return true
		}
		return false
	})
	preEpoch := df.coord.epochSnapshot()

	df.crash()
	df.boot()

	// Epochs resumed above the journaled high-water mark.
	if got := df.coord.epochSnapshot(); got < preEpoch {
		t.Errorf("post-restart epoch %d below pre-crash %d: stale leases could collide", got, preEpoch)
	}
	// Re-register so the janitor does not steal the recovered job locally
	// before the ghost's report lands.
	if err := post("/fleet/v1/register", RegisterRequest{WorkerID: "ghost"}, nil); err != nil {
		t.Fatal(err)
	}

	// The ghost finished the run it started under the dead incarnation and
	// reports with its pre-crash lease: stale, successful, deterministic —
	// accepted.
	payload := localPayload(t, body)
	var rr ResultResponse
	if err := post("/fleet/v1/result", ResultRequest{
		WorkerID: "ghost", JobID: id, Lease: grant.Lease,
		Outcome: serve.RemoteOutcome{Payload: payload},
	}, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Status != StatusAccepted {
		t.Fatalf("stale pre-crash result: status %q, want %q", rr.Status, StatusAccepted)
	}
	st := getJobURL(t, df.url, id)
	if st.State != serve.JobDone || !bytes.Equal(st.Result, payload) {
		t.Errorf("job after stale accept: state=%s, payload match=%v", st.State, bytes.Equal(st.Result, payload))
	}
	if got := df.coord.staleAccepted.Load(); got != 1 {
		t.Errorf("staleAccepted=%d, want 1", got)
	}
	if done := df.srv.Metrics().JobsDone.Load(); done != 1 {
		t.Errorf("JobsDone=%d, want exactly 1", done)
	}
}
