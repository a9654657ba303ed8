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
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// tracedSynthJob is smallSynthJob with trace_events set: a NoRD run busy
// enough to gate routers off and wake them during the measured window.
const tracedSynthJob = `{"kind":"synthetic","synthetic":{"design":"nord","width":4,"height":4,"pattern":"uniform","rate":0.05,"warmup":100,"measure":2000,"seed":42,"trace_events":true}}`

// traceLine is the union of the /trace NDJSON line shapes.
type traceLine struct {
	Type    string   `json:"type"`
	Cycle   uint64   `json:"cycle"`
	Router  int32    `json:"router"`
	Kind    string   `json:"kind"`
	Cause   string   `json:"cause"`
	Done    bool     `json:"done"`
	State   JobState `json:"state"`
	Total   uint64   `json:"events_total"`
	Dropped uint64   `json:"events_dropped"`
}

func readTraceStream(t *testing.T, ts *httptest.Server, id string) []traceLine {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("trace stream: %d %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type=%q", ct)
	}
	var lines []traceLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var ln traceLine
		if err := json.Unmarshal(raw, &ln); err != nil {
			t.Fatalf("bad trace NDJSON line %q: %v", raw, err)
		}
		lines = append(lines, ln)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestServerTraceStream submits a traced job and checks the /trace NDJSON
// stream end to end: event lines with power-gating kinds, then exactly one
// end line whose totals match the tracer's recording counters.
func TestServerTraceStream(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	code, sr, _ := postJob(t, ts, tracedSynthJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	// The stream is opened before completion, so it exercises the
	// subscribe-then-replay path as well as live batches.
	lines := readTraceStream(t, ts, sr.ID)

	var events, ends int
	kinds := map[string]int{}
	var end traceLine
	for _, ln := range lines {
		switch ln.Type {
		case "event":
			events++
			kinds[ln.Kind]++
		case "end":
			ends++
			end = ln
		default:
			t.Fatalf("unexpected line type %q", ln.Type)
		}
	}
	if events == 0 {
		t.Fatal("no trace events streamed")
	}
	if ends != 1 {
		t.Fatalf("want exactly one end line, got %d", ends)
	}
	if !end.Done || end.State != JobDone {
		t.Fatalf("end line done=%v state=%s", end.Done, end.State)
	}
	if end.Total == 0 || uint64(events) > end.Total {
		t.Fatalf("end totals: total=%d dropped=%d, streamed %d", end.Total, end.Dropped, events)
	}
	if kinds["gate_off"] == 0 || kinds["wake_start"] == 0 {
		t.Fatalf("missing power-gating kinds in stream: %v", kinds)
	}

	st := waitState(t, ts, sr.ID, JobDone, 30*time.Second)
	if !st.Traced {
		t.Fatal("job status does not mark the job as traced")
	}
	// A second read replays the retained history with a fresh end line.
	again := readTraceStream(t, ts, sr.ID)
	if len(again) == 0 || again[len(again)-1].Type != "end" {
		t.Fatal("replay after completion did not terminate with an end line")
	}
	// Traced runs bypass the result cache entirely.
	if got := s.Metrics().CacheHits.Load(); got != 0 {
		t.Fatalf("traced run recorded %d cache hits", got)
	}
}

// TestServerTraceRequiresTracedJob checks the guidance error for jobs
// submitted without trace_events.
func TestServerTraceRequiresTracedJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	code, sr, _ := postJob(t, ts, smallSynthJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitState(t, ts, sr.ID, JobDone, 30*time.Second)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("untraced job trace: %d, want 409", resp.StatusCode)
	}
	if !strings.Contains(string(data), "trace_events") {
		t.Fatalf("error body does not point at trace_events: %s", data)
	}
}

// TestServerTraceKeyIsolation checks that a traced submission never
// coalesces with (or is served from the cache of) an identical untraced
// run — they differ only in trace_events, so their cache keys must differ.
func TestServerTraceKeyIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	code, plain, _ := postJob(t, ts, smallSynthJob)
	if code != http.StatusAccepted {
		t.Fatalf("plain submit: %d", code)
	}
	waitState(t, ts, plain.ID, JobDone, 30*time.Second)

	code, traced, _ := postJob(t, ts, tracedSynthJob)
	if code != http.StatusAccepted || traced.Cached {
		t.Fatalf("traced submit after identical untraced run: code=%d cached=%v", code, traced.Cached)
	}
	if traced.ID == plain.ID {
		t.Fatal("traced job coalesced onto the untraced job")
	}
	waitState(t, ts, traced.ID, JobDone, 30*time.Second)
	if got := s.Metrics().SimsExecuted.Load(); got != 2 {
		t.Fatalf("executed %d simulations, want 2 (traced run must not hit the cache)", got)
	}
}

// TestServerRetryAfterClamped overflows a server and checks the 429's
// Retry-After is the whole-second constant "2": never "0", which many
// clients read as "retry immediately", and never a fraction.
func TestServerRetryAfterClamped(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	code, first, _ := postJob(t, ts, slowSynthJob(11))
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	waitState(t, ts, first.ID, JobRunning, 10*time.Second)
	code, second, _ := postJob(t, ts, slowSynthJob(12))
	if code != http.StatusAccepted {
		t.Fatalf("second submit: %d", code)
	}
	code, _, hdr := postJob(t, ts, slowSynthJob(13))
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d, want 429", code)
	}
	if ra := hdr.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After=%q, want \"2\"", ra)
	}
	for _, id := range []string{first.ID, second.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if _, err := http.DefaultClient.Do(req); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServerPerDesignMetrics checks the per-design wakeup/detour series:
// all four design labels are present from the first scrape, and a
// completed NoRD run moves only the NoRD counters.
func TestServerPerDesignMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	body := scrape(t, ts)
	for _, d := range []string{"No_PG", "Conv_PG", "Conv_PG_OPT", "NoRD"} {
		for _, m := range []string{"nord_sim_wakeups_total", "nord_sim_detours_total"} {
			series := fmt.Sprintf("%s{design=%q}", m, d)
			if v := promValue(t, body, series); v != 0 {
				t.Fatalf("%s=%v before any run", series, v)
			}
		}
	}
	code, sr, _ := postJob(t, ts, smallSynthJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitState(t, ts, sr.ID, JobDone, 30*time.Second)
	body = scrape(t, ts)
	if v := promValue(t, body, `nord_sim_wakeups_total{design="NoRD"}`); v <= 0 {
		t.Fatalf(`nord_sim_wakeups_total{design="NoRD"}=%v after a NoRD run`, v)
	}
	if v := promValue(t, body, `nord_sim_wakeups_total{design="No_PG"}`); v != 0 {
		t.Fatalf(`nord_sim_wakeups_total{design="No_PG"}=%v, want 0`, v)
	}
}

// TestRemoteRunPerDesignMetrics: a fleet worker's RunMeta moves the same
// per-design series a local run does, keyed by the design it names.
func TestRemoteRunPerDesignMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	var req JobRequest
	if err := json.Unmarshal([]byte(smallSynthJob), &req); err != nil {
		t.Fatal(err)
	}
	task, err := resolveSpec(&req)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	j := s.newJobLocked(task)
	s.mu.Unlock()
	j.markRunning()
	s.FinishRemote(j, RemoteOutcome{Payload: json.RawMessage(`{}`), Meta: &RunMeta{Design: "Conv_PG", Wakeups: 7, Detours: 3}})
	body := scrape(t, ts)
	if v := promValue(t, body, `nord_sim_wakeups_total{design="Conv_PG"}`); v != 7 {
		t.Errorf(`nord_sim_wakeups_total{design="Conv_PG"}=%v, want 7`, v)
	}
	if v := promValue(t, body, `nord_sim_detours_total{design="Conv_PG"}`); v != 3 {
		t.Errorf(`nord_sim_detours_total{design="Conv_PG"}=%v, want 3`, v)
	}
	if v := promValue(t, body, `nord_sim_wakeups_total{design="NoRD"}`); v != 0 {
		t.Errorf(`nord_sim_wakeups_total{design="NoRD"}=%v, want 0`, v)
	}
}

// goroutinesSettleTo polls until the goroutine count drops back to the
// baseline (plus slack for runtime/test-harness goroutines), failing after
// the deadline with a dump of what leaked.
func goroutinesSettleTo(t *testing.T, baseline int) {
	t.Helper()
	const slack = 4
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not settle: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// slowTracedJob runs long enough for subscribers to attach and disconnect
// mid-run; a NoRD design at low load keeps trace batches flowing.
func slowTracedJob(seed int) string {
	return fmt.Sprintf(`{"kind":"synthetic","synthetic":{"design":"nord","width":4,"height":4,"pattern":"uniform","rate":0.05,"warmup":100,"measure":80000000,"seed":%d,"trace_events":true}}`, seed)
}

// TestServerStreamDisconnectNoLeak attaches /events and /trace streams to
// a running job, disconnects them mid-run, cancels the job, and checks no
// handler or subscriber goroutine is left behind.
func TestServerStreamDisconnectNoLeak(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	client := &http.Client{}
	defer client.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	code, sr, _ := postJob(t, ts, slowTracedJob(21))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitState(t, ts, sr.ID, JobRunning, 10*time.Second)

	// Open both stream kinds, read a little, then drop each connection
	// mid-stream by canceling its request context.
	for _, path := range []string{"/events", "/trace", "/events", "/trace"} {
		ctx, cancel := context.WithCancel(context.Background())
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+sr.ID+path, nil)
		resp, err := client.Do(req)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		buf := make([]byte, 256)
		_, _ = resp.Body.Read(buf) // ensure the handler is streaming
		cancel()
		resp.Body.Close()
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sr.ID, nil)
	if _, err := client.Do(req); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for getStatus(t, ts, sr.ID).State != JobCanceled {
		if time.Now().After(deadline) {
			t.Fatal("job did not cancel")
		}
		time.Sleep(10 * time.Millisecond)
	}
	client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	goroutinesSettleTo(t, baseline)
}

// TestServerConcurrentScrapes hammers /metrics while jobs are being
// submitted and completing — run with -race, this is the regression net
// for the counter wiring added for the per-design series.
func TestServerConcurrentScrapes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				body := scrape(t, ts)
				if !strings.Contains(body, "nord_sim_wakeups_total") {
					t.Error("scrape missing per-design series")
					return
				}
			}
		}()
	}
	ids := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		body := fmt.Sprintf(`{"kind":"synthetic","synthetic":{"design":"nord","width":4,"height":4,"pattern":"uniform","rate":0.05,"warmup":100,"measure":2000,"seed":%d,"trace_events":%v}}`, 100+i, i%2 == 0)
		code, sr, _ := postJob(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
		ids = append(ids, sr.ID)
	}
	for _, id := range ids {
		waitState(t, ts, id, JobDone, 60*time.Second)
	}
	close(stop)
	wg.Wait()
}
