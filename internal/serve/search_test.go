package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"nord/internal/search"
)

// smallSearch is a search spec cheap enough for tests: a 4x4 mesh, two
// designs, 1000 measured cycles per candidate — yet rich enough that the
// latency/energy/area trade-off produces a multi-point front.
func smallSearch(seed int) string {
	return `{
		"algorithm": "nsga2",
		"seed": ` + itoa(seed) + `,
		"generations": 2,
		"population": 6,
		"measure": 1000,
		"space": {
			"designs": ["NoRD", "Conv_PG"],
			"widths": [4],
			"vcs": [3, 4],
			"buffer_depths": [2, 5],
			"gate_idle": [2],
			"wake_thresholds": [6],
			"rates": [0.05, 0.15]
		}
	}`
}

func itoa(n int) string { return strconv.Itoa(n) }

func postSearch(t *testing.T, ts *httptest.Server, body string) (int, submitResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	_ = json.NewDecoder(resp.Body).Decode(&sr)
	return resp.StatusCode, sr
}

// searchOutcome decodes a done search job's result, keeping the front
// bytes raw (they are the determinism unit).
func searchOutcome(t *testing.T, ts *httptest.Server, id string) (front json.RawMessage, res search.Result) {
	t.Helper()
	st := waitState(t, ts, id, JobDone, 120*time.Second)
	var raw struct {
		Front json.RawMessage `json:"front"`
	}
	if err := json.Unmarshal(st.Result, &raw); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	return raw.Front, res
}

// TestSearchDeterministicAndCached is the acceptance path: a fixed-seed
// search completes with a provenance-rich front containing a
// non-dominated NoRD point; resubmitting the identical spec (searches
// are never memoized) re-runs the loop against warm caches, serving at
// least 90% of evaluations without fresh simulation and reproducing the
// front byte for byte.
func TestSearchDeterministicAndCached(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16})

	code, sr := postSearch(t, ts, smallSearch(3))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	front1, res1 := searchOutcome(t, ts, sr.ID)
	if len(res1.Front) == 0 {
		t.Fatal("empty front")
	}
	var nord bool
	for _, p := range res1.Front {
		if p.CacheKey == "" || len(p.Request) == 0 || p.Config.Width != 4 {
			t.Fatalf("front point missing provenance: %+v", p)
		}
		if p.Config.Design == "NoRD" {
			nord = true
		}
		for _, q := range res1.Front {
			if p.CacheKey != q.CacheKey && search.Dominates(q.Objectives, p.Objectives) {
				t.Fatalf("front point %s dominated by %s", p.CacheKey, q.CacheKey)
			}
		}
	}
	if !nord {
		t.Fatalf("no NoRD point on the front: %s", front1)
	}

	body := scrape(t, ts)
	evals1 := promValue(t, body, "nord_search_evaluations_total")
	hits1 := promValue(t, body, "nord_search_cache_hits_total")
	gens1 := promValue(t, body, "nord_search_generations_total")
	if evals1 == 0 || gens1 == 0 {
		t.Fatalf("search metrics not recorded: evals %v gens %v", evals1, gens1)
	}
	if fs := promValue(t, body, "nord_search_front_size"); fs != float64(len(res1.Front)) {
		t.Fatalf("front-size gauge %v, want %d", fs, len(res1.Front))
	}

	// The identical spec resubmits as a fresh job (completed searches drop
	// their dedup entry) and must reproduce the front from cache.
	code, sr2 := postSearch(t, ts, smallSearch(3))
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: %d", code)
	}
	if sr2.ID == sr.ID {
		t.Fatal("completed search was memoized; searches must re-run")
	}
	front2, _ := searchOutcome(t, ts, sr2.ID)
	if string(front1) != string(front2) {
		t.Fatalf("front not byte-identical across runs:\n%s\n%s", front1, front2)
	}
	body = scrape(t, ts)
	dEvals := promValue(t, body, "nord_search_evaluations_total") - evals1
	dHits := promValue(t, body, "nord_search_cache_hits_total") - hits1
	if dEvals == 0 {
		t.Fatal("second search made no evaluations")
	}
	if ratio := dHits / dEvals; ratio < 0.9 {
		t.Fatalf("second identical search hit the cache on %.0f%% of %v evaluations, want >= 90%%",
			ratio*100, dEvals)
	}
}

// TestSearchCoalescesWhileLive: a concurrent identical search coalesces
// onto the live job instead of racing a second loop over the frontier.
func TestSearchCoalescesWhileLive(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	long := `{"seed": 9, "generations": 8, "population": 8, "measure": 40000000}`
	code, sr := postSearch(t, ts, long)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	code, sr2 := postSearch(t, ts, long)
	if code != http.StatusOK || sr2.ID != sr.ID || !sr2.Cached {
		t.Fatalf("live duplicate not coalesced: %d %+v", code, sr2)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sr.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts, sr.ID).State != JobCanceled {
		if time.Now().After(deadline) {
			t.Fatal("search did not cancel")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSearchLimit: concurrent searches beyond maxSearches receive 429 +
// Retry-After, and a slot freed by cancellation is reusable.
func TestSearchLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	long := func(seed int) string {
		return `{"seed": ` + itoa(seed) + `, "generations": 8, "population": 8, "measure": 40000000}`
	}
	var running []submitResponse
	for seed := 1; seed <= maxSearches; seed++ {
		code, sr := postSearch(t, ts, long(seed))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", seed, code)
		}
		running = append(running, sr)
	}
	resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(long(maxSearches+1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit search got %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After=%q, want \"2\"", ra)
	}
	sr := running[0]
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sr.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if getStatus(t, ts, sr.ID).State == JobCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("search did not cancel")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The released slot admits a new search; Shutdown cancels the rest.
	deadline = time.Now().Add(10 * time.Second)
	for {
		code, _ := postSearch(t, ts, long(maxSearches+2))
		if code == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot not released: still %d", code)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestSearchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	for name, body := range map[string]string{
		"malformed":     `{`,
		"unknown field": `{"seed": 1, "bogus": true}`,
		"bad algorithm": `{"algorithm": "annealing"}`,
		"bad design":    `{"space": {"designs": ["Maglev"]}}`,
		"bad topology":  `{"space": {"topologies": ["hypercube"]}}`,
		"tiny measure":  `{"measure": 10}`,
		"odd NoRD grid": `{"space": {"designs": ["NoRD"], "widths": [3]}}`,
	} {
		code, _ := postSearch(t, ts, body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400", name, code)
		}
	}
}

// TestSearchCancelNoLeak mirrors the stream-disconnect leak test for the
// search path: cancel a running search mid-generation and verify the
// driver, its evaluation goroutines and its ephemeral child jobs all
// unwind.
func TestSearchCancelNoLeak(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	baseline := runtime.NumGoroutine()

	// Children measure 40M cycles: the search cannot finish generation 0
	// before the cancel lands, so cancellation must tear down in-flight
	// child evaluations rather than wait them out.
	code, sr := postSearch(t, ts, `{"seed": 5, "generations": 8, "population": 8, "measure": 40000000}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitState(t, ts, sr.ID, JobRunning, 10*time.Second)
	time.Sleep(100 * time.Millisecond) // let child evaluations start

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sr.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts, sr.ID).State != JobCanceled {
		if time.Now().After(deadline) {
			t.Fatal("search did not cancel")
		}
		time.Sleep(10 * time.Millisecond)
	}
	http.DefaultClient.CloseIdleConnections()
	goroutinesSettleTo(t, baseline)
}
