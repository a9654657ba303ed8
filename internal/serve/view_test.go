package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nord/internal/stats"
)

// encoderBody is what GET /v1/jobs/{id} wrote before terminal views
// existed, and still writes for live jobs: the reference the rendered
// view is held to.
func encoderBody(t *testing.T, j *Job) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(j.status(true)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func getRaw(t *testing.T, ts *httptest.Server, id string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestTerminalViewMatchesEncoder: for every way a job can end, the GET
// body is byte for byte what the encoder writes for the job's status, and
// it is sent with a Content-Length instead of chunked.
func TestTerminalViewMatchesEncoder(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	ids := map[string]string{}
	submit := func(name, body string) string {
		t.Helper()
		code, sr, _ := postJob(t, ts, body)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("%s: submit %d", name, code)
		}
		ids[name] = sr.ID
		return sr.ID
	}

	// One worker: the slow job occupies it, the next one waits in the queue.
	running := submit("canceled mid-run", slowSynthJob(1))
	waitState(t, ts, running, JobRunning, 30*time.Second)
	queued := submit("canceled while queued", slowSynthJob(2))
	for _, id := range []string{queued, running} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	waitState(t, ts, queued, JobCanceled, 30*time.Second)
	waitState(t, ts, running, JobCanceled, 30*time.Second)

	waitState(t, ts, submit("done", smallSynthJob), JobDone, 60*time.Second)
	waitState(t, ts, submit("failed", `{"kind":"trace","trace":{"design":"nord","path":"/nonexistent/<trace>&.bin"}}`), JobFailed, 30*time.Second)
	waitState(t, ts, submit("traced", `{"kind":"synthetic","synthetic":{"design":"nord","width":4,"height":4,"rate":0.05,"warmup":100,"measure":1500,"seed":5,"trace_events":true}}`), JobDone, 60*time.Second)
	waitState(t, ts, submit("sweep", `{"kind":"sweep","sweep":{"width":4,"height":4,"rates":[0.02],"measure":1500,"seed":3}}`), JobDone, 60*time.Second)
	code, sr := postSearch(t, ts, smallSearch(7))
	if code != http.StatusAccepted {
		t.Fatalf("search: submit %d", code)
	}
	ids["search"] = sr.ID
	waitState(t, ts, sr.ID, JobDone, 120*time.Second)

	// Served from the cache, and from a payload no json.Marshal wrote: a
	// tier PUT may carry whitespace and raw HTML-sensitive bytes, which the
	// encoder compacts and escapes on the way out.
	spec := `{"kind":"synthetic","synthetic":{"design":"no_pg","width":2,"height":2,"rate":0.01,"measure":10,"seed":99}}`
	var req JobRequest
	if err := json.Unmarshal([]byte(spec), &req); err != nil {
		t.Fatal(err)
	}
	tk, err := resolveTask(&req)
	if err != nil {
		t.Fatal(err)
	}
	hostile := []byte("{ \"note\" : \"<b>&amp;\u2028</b>\",\n\t\"n\" : [ 1, 2 ] }")
	sum := sha256.Sum256(hostile)
	if resp := tierPut(t, ts, tk.key, hostile, hex.EncodeToString(sum[:])); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("tier PUT: %d", resp.StatusCode)
	}
	code, sr, _ = postJob(t, ts, spec)
	if code != http.StatusOK || !sr.Cached {
		t.Fatalf("cached: submit %d cached=%v", code, sr.Cached)
	}
	ids["cached"] = sr.ID

	for name, id := range ids {
		j, _ := s.lookup(id)
		want := encoderBody(t, j)
		resp, got := getRaw(t, ts, id)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: GET body differs from the encoder's:\n got %q\nwant %q", name, got, want)
		}
		if resp.ContentLength != int64(len(want)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v; want %d and none", name, resp.ContentLength, resp.TransferEncoding, len(want))
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", name, ct)
		}
		if view := j.terminalView(); !bytes.Equal(view, want) {
			t.Errorf("%s: no rendered view behind the response", name)
		}
		st := j.status(true)
		if (st.State == JobDone) != (len(st.Result) > 0) {
			t.Errorf("%s: state %s with %d result bytes", name, st.State, len(st.Result))
		}
	}
	if st := getStatus(t, ts, ids["cached"]); !st.Cached || string(st.Result) != `{"note":"\u003cb\u003e\u0026amp;\u2028\u003c/b\u003e","n":[1,2]}` {
		t.Errorf("cached: cached=%v result %s", st.Cached, st.Result)
	}
	if st := getStatus(t, ts, ids["canceled while queued"]); st.Error != "canceled while queued" {
		t.Errorf("canceled while queued: error %q", st.Error)
	}
}

// ptrWriter is a ResponseWriter that keeps the slice handed to Write.
type ptrWriter struct {
	h     http.Header
	wrote []byte
}

func (w *ptrWriter) Header() http.Header         { return w.h }
func (w *ptrWriter) WriteHeader(int)             {}
func (w *ptrWriter) Write(p []byte) (int, error) { w.wrote = p; return len(p), nil }

// doneJob runs smallSynthJob to completion and returns it.
func doneJob(t *testing.T, s *Server, ts *httptest.Server) *Job {
	t.Helper()
	_, sr, _ := postJob(t, ts, smallSynthJob)
	waitState(t, ts, sr.ID, JobDone, 60*time.Second)
	j, _ := s.lookup(sr.ID)
	return j
}

// TestTerminalViewRenderedOnce: concurrent GETs of a terminal job are all
// handed the same backing array — nothing is rendered or copied per
// request. Run under -race.
func TestTerminalViewRenderedOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	j := doneJob(t, s, ts)
	h := s.Handler()
	var wg sync.WaitGroup
	got := make([][]byte, 100)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &ptrWriter{h: http.Header{}}
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.ID, nil))
			got[i] = w.wrote
		}(i)
	}
	wg.Wait()
	view := j.terminalView()
	if len(view) == 0 {
		t.Fatal("no view on a done job")
	}
	for i, p := range got {
		if len(p) != len(view) || &p[0] != &view[0] {
			t.Fatalf("GET %d was written from its own copy of the body", i)
		}
	}
}

// within reports whether inner is a sub-slice of outer's backing array.
func within(inner, outer []byte) bool {
	if len(inner) == 0 || len(outer) == 0 {
		return false
	}
	for i := range outer {
		if &outer[i] == &inner[0] {
			return i+len(inner) <= len(outer)
		}
	}
	return false
}

// TestHitPathAllocBudget: a resubmitted spec (coalesced POST) plus the GET
// of its finished job is a bounded, payload-independent number of
// allocations, and a job keeps exactly one copy of its payload: the result
// and the cache entry are sub-slices of the view.
func TestHitPathAllocBudget(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	j := doneJob(t, s, ts)
	if !within(j.result, j.view) {
		t.Fatal("job result is a second copy of the payload, not a sub-slice of the view")
	}
	if val, ok := s.cache.Get(j.Key); !ok || !within(val, j.view) {
		t.Fatal("cache entry is a second copy of the payload, not a sub-slice of the view")
	}

	// The same for a job answered from the cache: drop the dedup entry so
	// the resubmission takes the cache path and mints a fresh job.
	s.dropKey(j)
	code, sr, _ := postJob(t, ts, smallSynthJob)
	if code != http.StatusOK || !sr.Cached || sr.ID == j.ID {
		t.Fatalf("resubmit: %d %+v", code, sr)
	}
	j2, _ := s.lookup(sr.ID)
	val, _ := s.cache.Get(j.Key)
	if !within(j2.result, j2.view) || !within(val, j2.view) {
		t.Fatal("cache-served job and cache entry do not share one copy of the payload")
	}

	h := s.Handler()
	get := "/v1/jobs/" + j2.ID
	allocs := testing.AllocsPerRun(200, func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(smallSynthJob)))
		if w.Code != http.StatusOK {
			t.Fatalf("POST: %d", w.Code)
		}
		w = httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, get, nil))
		if w.Body.Len() != len(j2.view) {
			t.Fatalf("GET: %d bytes, want %d", w.Body.Len(), len(j2.view))
		}
	})
	// Measured 66 (go1.24; 70 under -race), most of it httptest's request
	// and recorder and the body decode; the commit before terminal views
	// measures 163 on the same loop. The slack absorbs toolchain drift, not
	// a regression: re-encoding the status alone costs more than it.
	const budget = 76
	t.Logf("hit path: %.0f allocs per POST+GET (budget %d)", allocs, budget)
	if allocs > budget {
		t.Fatalf("hit path allocates %.0f per POST+GET, budget %d", allocs, budget)
	}
}

// TestPublishAfterTerminal: a snapshot that arrives after the job is
// terminal — a stale fleet worker's heartbeat, a late one after cancel —
// is dropped, so what a finished job reports never changes.
func TestPublishAfterTerminal(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	j := doneJob(t, s, ts)
	_, before := getRaw(t, ts, j.ID)
	history, _, unsub := subscribe(j, &j.progress)
	unsub()
	if len(history) == 0 {
		t.Fatal("job recorded no progress")
	}
	last := history[len(history)-1]
	cycles := s.metrics.SimCycles.Load()

	for _, p := range []stats.Progress{
		{Phase: "measure", Cycle: last.Cycle + 5000}, // later than anything seen
		{Phase: "warmup", Cycle: 1},                  // earlier
	} {
		if d := j.publish(p); d != 0 {
			t.Errorf("publish(%+v) on a terminal job advanced %d cycles", p, d)
		}
		s.PublishProgress(j, p)
	}

	if _, after := getRaw(t, ts, j.ID); !bytes.Equal(before, after) {
		t.Errorf("GET of a done job changed:\nbefore %s\n after %s", before, after)
	}
	if got := encoderBody(t, j); !bytes.Equal(got, before) {
		t.Errorf("status drifted from the rendered view:\n%s\n%s", got, before)
	}
	again, _, unsub := subscribe(j, &j.progress)
	unsub()
	if len(again) != len(history) || again[len(again)-1] != last {
		t.Errorf("/events history grew from %d to %d snapshots", len(history), len(again))
	}
	if got := s.metrics.SimCycles.Load(); got != cycles {
		t.Errorf("sim cycle counter moved %d -> %d", cycles, got)
	}
}

// TestRequestDurationHistogram: the two hit-path routes are observed, the
// series are well-formed (cumulative buckets ending at the count), and an
// observation allocates nothing.
func TestRequestDurationHistogram(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	doneJob(t, s, ts) // one POST, several polling GETs
	postJob(t, ts, smallSynthJob)
	body := scrape(t, ts)
	const name = "nord_http_request_duration_seconds"
	if n := promValue(t, body, name+`_count{route="submit"}`); n != 2 {
		t.Errorf("submit count %v, want 2", n)
	}
	gets := promValue(t, body, name+`_count{route="get"}`)
	if gets < 1 {
		t.Errorf("get count %v, want >= 1", gets)
	}
	if inf := promValue(t, body, name+`_bucket{route="get",le="+Inf"}`); inf != gets {
		t.Errorf("+Inf bucket %v != count %v", inf, gets)
	}
	if sum := promValue(t, body, name+`_sum{route="get"}`); sum <= 0 {
		t.Errorf("get sum %v", sum)
	}
	prev := 0.0
	for _, le := range latencyBounds {
		v := promValue(t, body, name+`_bucket{route="get",le="`+strconv.FormatFloat(le.Seconds(), 'g', -1, 64)+`"}`)
		if v < prev {
			t.Errorf("bucket le=%v not cumulative: %v after %v", le, v, prev)
		}
		prev = v
	}

	var h Histogram
	h.Observe(25 * time.Microsecond) // on a bound: counts in that bucket
	h.Observe(26 * time.Microsecond)
	h.Observe(time.Hour)
	if h.buckets[0].Load() != 1 || h.buckets[1].Load() != 1 || h.buckets[len(latencyBounds)].Load() != 1 {
		t.Errorf("bucket placement: %v %v +Inf %v", h.buckets[0].Load(), h.buckets[1].Load(), h.buckets[len(latencyBounds)].Load())
	}
	if a := testing.AllocsPerRun(100, func() { h.Observe(time.Millisecond) }); a != 0 {
		t.Errorf("Observe allocates %v", a)
	}
}
