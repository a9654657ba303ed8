package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nord/internal/sim"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (int, submitResponse, http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	data, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(data, &sr)
	return resp.StatusCode, sr, resp.Header
}

// postRaw submits a body and returns the status code and raw response.
func postRaw(t *testing.T, ts *httptest.Server, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(data)
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t *testing.T, ts *httptest.Server, id string, want JobState, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q) while waiting for %s", id, st.State, st.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach %s within %s", id, want, timeout)
	return JobStatus{}
}

// promValue extracts a sample from Prometheus text exposition output.
func promValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name)), 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, body)
	return 0
}

func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return string(data)
}

const smallSynthJob = `{"kind":"synthetic","synthetic":{"design":"nord","width":4,"height":4,"pattern":"uniform","rate":0.05,"warmup":100,"measure":2000,"seed":42}}`

// slowSynthJob runs long enough to still be in flight when the test acts
// on it (tens of millions of cycles), but cancels within one context poll
// (1024 cycles).
func slowSynthJob(seed int) string {
	return fmt.Sprintf(`{"kind":"synthetic","synthetic":{"design":"no_pg","width":4,"height":4,"pattern":"uniform","rate":0.05,"warmup":100,"measure":80000000,"seed":%d}}`, seed)
}

// TestServerDedup64 is the headline acceptance test: 64 concurrent
// identical submissions against a 2-worker server must execute exactly
// one simulation, with at least 63 cache hits, all visible in /metrics.
func TestServerDedup64(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 64})
	const n = 64
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		ids     = map[string]struct{}{}
		cached  int
		codes   = map[int]int{}
		firstID string
	)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			code, sr, _ := postJob(t, ts, smallSynthJob)
			mu.Lock()
			defer mu.Unlock()
			codes[code]++
			ids[sr.ID] = struct{}{}
			if sr.Cached {
				cached++
			} else {
				firstID = sr.ID
			}
		}()
	}
	close(start)
	wg.Wait()

	if codes[http.StatusAccepted] != 1 || codes[http.StatusOK] != n-1 {
		t.Fatalf("want 1x202 + %dx200, got %v", n-1, codes)
	}
	if cached != n-1 {
		t.Fatalf("want %d cached responses, got %d", n-1, cached)
	}
	if len(ids) != 1 {
		t.Fatalf("coalescing produced %d distinct job ids: %v", len(ids), ids)
	}
	st := waitState(t, ts, firstID, JobDone, 30*time.Second)
	if len(st.Result) == 0 {
		t.Fatal("done job has no result")
	}
	if got := s.Metrics().SimsExecuted.Load(); got != 1 {
		t.Fatalf("executed %d simulations, want exactly 1", got)
	}

	// A post-completion resubmission also hits (byKey retains done jobs).
	code, sr, _ := postJob(t, ts, smallSynthJob)
	if code != http.StatusOK || !sr.Cached {
		t.Fatalf("resubmit after done: code=%d cached=%v", code, sr.Cached)
	}

	body := scrape(t, ts)
	if v := promValue(t, body, "nord_sims_executed_total"); v != 1 {
		t.Fatalf("nord_sims_executed_total=%v", v)
	}
	if v := promValue(t, body, "nord_cache_hits_total"); v < n-1 {
		t.Fatalf("nord_cache_hits_total=%v, want >= %d", v, n-1)
	}
	if v := promValue(t, body, "nord_cache_misses_total"); v != 1 {
		t.Fatalf("nord_cache_misses_total=%v", v)
	}
	if v := promValue(t, body, "nord_sim_cycles_total"); v <= 0 {
		t.Fatalf("nord_sim_cycles_total=%v, want > 0", v)
	}
}

// TestServerQueueOverflow fills a 1-worker, 1-slot server and checks the
// backpressure contract: 429 plus a Retry-After hint, counted in metrics.
func TestServerQueueOverflow(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	// Occupy the worker with a long run.
	code, first, _ := postJob(t, ts, slowSynthJob(1))
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	waitState(t, ts, first.ID, JobRunning, 10*time.Second)

	// Fill the single queue slot.
	if code, _, _ := postJob(t, ts, slowSynthJob(2)); code != http.StatusAccepted {
		t.Fatalf("second submit: %d", code)
	}
	// Overflow.
	code, _, hdr := postJob(t, ts, slowSynthJob(3))
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d, want 429", code)
	}
	if ra := hdr.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After=%q, want \"2\"", ra)
	}
	body := scrape(t, ts)
	if v := promValue(t, body, "nord_jobs_rejected_total"); v != 1 {
		t.Fatalf("nord_jobs_rejected_total=%v", v)
	}
	if v := promValue(t, body, "nord_queue_depth"); v != 1 {
		t.Fatalf("nord_queue_depth=%v", v)
	}
	if v := promValue(t, body, "nord_workers_busy"); v != 1 {
		t.Fatalf("nord_workers_busy=%v", v)
	}
	// Cleanup: cancel both jobs so Shutdown is fast.
	for _, id := range []string{first.ID, "j000002"} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if _, err := http.DefaultClient.Do(req); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServerCancelMidRun cancels a running job and checks it terminates
// promptly (bounded by the sim layer's context polling), and that the
// canceled key is dropped so a resubmission re-executes.
func TestServerCancelMidRun(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	code, sr, _ := postJob(t, ts, slowSynthJob(7))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitState(t, ts, sr.ID, JobRunning, 10*time.Second)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sr.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := getStatus(t, ts, sr.ID)
		if st.State == JobCanceled {
			break
		}
		if st.State.Terminal() {
			t.Fatalf("job ended %s, want canceled", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s long after cancel — tick loop not honouring ctx", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.Metrics().JobsCanceled.Load(); got != 1 {
		t.Fatalf("JobsCanceled=%d", got)
	}
	// The canceled run must not satisfy future submissions.
	code, sr2, _ := postJob(t, ts, slowSynthJob(7))
	if code != http.StatusAccepted || sr2.Cached {
		t.Fatalf("resubmit after cancel: code=%d cached=%v", code, sr2.Cached)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sr2.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
}

// TestServerEvents streams NDJSON progress and checks snapshots plus the
// terminal marker arrive.
func TestServerEvents(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	code, sr, _ := postJob(t, ts, smallSynthJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type=%q", ct)
	}
	var snapshots, terminal int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Done  bool     `json:"done"`
			State JobState `json:"state"`
			Cycle uint64   `json:"cycle"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if probe.Done {
			terminal++
			if probe.State != JobDone {
				t.Fatalf("terminal state %s", probe.State)
			}
		} else {
			snapshots++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if snapshots == 0 {
		t.Fatal("no progress snapshots streamed")
	}
	if terminal != 1 {
		t.Fatalf("want exactly one terminal line, got %d", terminal)
	}
}

// TestServerValidation covers the client-error surface.
func TestServerValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	cases := []struct {
		name, body string
	}{
		{"not json", `{{{`},
		{"missing kind", `{}`},
		{"unknown kind", `{"kind":"quantum"}`},
		{"kind without spec", `{"kind":"synthetic"}`},
		{"unknown design", `{"kind":"synthetic","synthetic":{"design":"mystery"}}`},
		{"rate out of range", `{"kind":"synthetic","synthetic":{"design":"nord","rate":2.0}}`},
		{"unknown pattern", `{"kind":"synthetic","synthetic":{"design":"nord","pattern":"spiral"}}`},
		{"unknown benchmark", `{"kind":"workload","workload":{"design":"nord","benchmark":"doom"}}`},
		{"sweep without rates", `{"kind":"sweep","sweep":{}}`},
		{"unknown field", `{"kind":"synthetic","synthetic":{"design":"nord"},"bogus":1}`},
		{"unknown topology", `{"kind":"synthetic","synthetic":{"design":"nord","topology":"hypercube"}}`},
		{"oversized width", `{"kind":"synthetic","synthetic":{"design":"nord","width":257,"height":4}}`},
		{"oversized height", `{"kind":"synthetic","synthetic":{"design":"nord","width":4,"height":100000}}`},
		{"torus needs 3 vcs", `{"kind":"synthetic","synthetic":{"design":"no_pg","topology":"torus","vcs":2}}`},
		{"oversized sweep grid", `{"kind":"sweep","sweep":{"width":300,"height":4,"rates":[0.05]}}`},
		{"negative wakeup", `{"kind":"synthetic","synthetic":{"design":"nord","wakeup_latency":-5}}`},
		{"negative sweep measure", `{"kind":"sweep","sweep":{"rates":[0.05],"measure":-5}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, _ := postJob(t, ts, tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("code=%d, want 400", code)
			}
		})
	}

	// serve has no grid or VC rule of its own: these are
	// noc.Params.Validate's, reached through sim.SynthConfig.Validate, and
	// the wording shows it.
	for _, tc := range []struct{ name, body, want string }{
		{"nord needs 3 vcs", `{"kind":"synthetic","synthetic":{"design":"nord","vcs":2}}`, "needs at least 3 VCs"},
		{"vcs above the port limit", `{"kind":"synthetic","synthetic":{"design":"no_pg","vcs":100}}`, "at most 64 VCs per port"},
		{"1-wide grid", `{"kind":"synthetic","synthetic":{"design":"nord","width":1,"height":4}}`, "at least 2x2"},
		{"negative sweep grid", `{"kind":"sweep","sweep":{"width":-3,"height":4,"rates":[0.05]}}`, "at least 2x2"},
		{"odd nord mesh has no ring", `{"kind":"synthetic","synthetic":{"design":"nord","width":3,"height":3}}`, "no Hamiltonian bypass ring"},
		{"odd sweep grid has no ring", `{"kind":"sweep","sweep":{"width":5,"height":3,"rates":[0.05]}}`, "no Hamiltonian bypass ring"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postRaw(t, ts, tc.body)
			if code != http.StatusBadRequest || !strings.Contains(body, tc.want) {
				t.Fatalf("got %d %s, want 400 containing %q", code, body, tc.want)
			}
		})
	}
	for _, d := range []string{"no_pg", "conv_pg", "conv_pg_opt", "nord"} {
		if _, err := (&SyntheticSpec{Design: d, VCs: 3}).resolve(); err != nil {
			t.Errorf("%s with 3 VCs, the rule's floor: %v", d, err)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

// TestSweepRatesCap: the per-sweep rate list is bounded — each entry
// fans out into a simulation per design, so an unbounded list is a
// resource-exhaustion footgun.
func TestSweepRatesCap(t *testing.T) {
	over := make([]float64, maxSweepRates+1)
	if _, err := resolveSweep(sim.SweepConfig{Rates: over}); err == nil {
		t.Fatalf("%d rates accepted, cap is %d", len(over), maxSweepRates)
	}
	if _, err := resolveSweep(sim.SweepConfig{Rates: over[:maxSweepRates]}); err != nil {
		t.Fatalf("at-cap rate list rejected: %v", err)
	}
}

// TestTopologySpecRoundTrip: a topology-bearing spec must survive the
// resolve -> filled config -> syntheticSpecFor round trip with the same
// cache key, and distinct topologies must key differently (the cache
// must never serve a mesh result for a torus request).
func TestTopologySpecRoundTrip(t *testing.T) {
	keys := map[string]string{}
	for _, topo := range []string{"mesh", "torus", "cmesh"} {
		sp := &SyntheticSpec{Design: "nord", Topology: topo, Width: 4, Height: 4, Rate: 0.05, Measure: 1000}
		tk, err := sp.resolve()
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		keys[topo] = tk.key

		cfg := goldenSynthConfig()
		cfg.Topology = topo
		rt, err := syntheticSpecFor(cfg.Filled()).resolve()
		if err != nil {
			t.Fatalf("%s round trip: %v", topo, err)
		}
		direct, err := taskKey("synthetic", false, cfg.Filled())
		if err != nil {
			t.Fatal(err)
		}
		if rt.key != direct {
			t.Errorf("%s: round-tripped key %s != direct key %s", topo, rt.key, direct)
		}
	}
	if keys["mesh"] == keys["torus"] || keys["mesh"] == keys["cmesh"] || keys["torus"] == keys["cmesh"] {
		t.Errorf("topologies share a cache key: %v", keys)
	}
}

// TestServerDrain checks BeginDrain flips intake and readiness to 503
// while existing jobs remain queryable.
func TestServerDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	code, sr, _ := postJob(t, ts, smallSynthJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitState(t, ts, sr.ID, JobDone, 30*time.Second)

	s.BeginDrain()
	if code, _, _ := postJob(t, ts, slowSynthJob(99)); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	// Completed work stays readable during the drain.
	if st := getStatus(t, ts, sr.ID); st.State != JobDone {
		t.Fatalf("job state %s after drain", st.State)
	}
}

// TestServerSweepJob exercises the sweep kind end to end (it fans out
// internally via sim.LoadSweep).
func TestServerSweepJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	body := `{"kind":"sweep","sweep":{"width":4,"height":4,"pattern":"uniform","rates":[0.02],"measure":2000,"seed":3}}`
	code, sr, _ := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	st := waitState(t, ts, sr.ID, JobDone, 60*time.Second)
	var pts []map[string]any
	if err := json.Unmarshal(st.Result, &pts); err != nil {
		t.Fatalf("sweep result not a point list: %v", err)
	}
	if len(pts) == 0 {
		t.Fatal("sweep produced no points")
	}
}
