package serve

import (
	"fmt"
	"net/http"
	"testing"
	"time"
)

// TestTerminalJobsAreBounded: the server forgets terminal jobs oldest-first
// beyond its retention depth — gone from the ID map and the dedup index,
// so neither grows with every job the process ever accepted — while live
// jobs stay, and a forgotten job's spec is still a cache hit (here from
// the spill: the 2-entry memory tier dropped it long ago).
func TestTerminalJobsAreBounded(t *testing.T) {
	const bound, extra = 8, 12
	s, ts := newTestServer(t, Config{Workers: 2, CacheEntries: 2, CacheDir: t.TempDir()})
	s.mu.Lock()
	s.retain = bound
	s.mu.Unlock()

	_, live, _ := postJob(t, ts, slowSynthJob(1))
	waitState(t, ts, live.ID, JobRunning, 10*time.Second)

	body := func(i int) string {
		return fmt.Sprintf(`{"kind":"synthetic","synthetic":{"design":"no_pg","width":2,"height":2,"rate":0.05,"warmup":10,"measure":50,"seed":%d}}`, i)
	}
	ids := make([]string, bound+extra)
	for i := range ids {
		code, sr, _ := postJob(t, ts, body(i))
		if code != http.StatusAccepted {
			t.Fatalf("job %d: status %d", i, code)
		}
		ids[i] = sr.ID
		waitState(t, ts, sr.ID, JobDone, 10*time.Second) // one at a time: terminal order is submission order
	}
	// Retirement follows the transition a poll can see; the outcome
	// counters are bumped after it.
	accounted := func(c interface{ Load() uint64 }, n int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); c.Load() < uint64(n); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("jobs never all accounted")
			}
		}
	}
	accounted(&s.metrics.JobsDone, len(ids))

	s.mu.Lock()
	nJobs, nKeys, nTerminal := len(s.jobs), len(s.byKey), len(s.terminal)
	s.mu.Unlock()
	if nJobs > bound+1 || nKeys > bound+1 || nTerminal > bound { // +1: the live job
		t.Errorf("after %d jobs: jobs=%d byKey=%d terminal=%d, bound %d", len(ids), nJobs, nKeys, nTerminal, bound)
	}
	if resp, _ := getRaw(t, ts, ids[0]); resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest job %s: status %d, want 404", ids[0], resp.StatusCode)
	}
	if st := getStatus(t, ts, ids[len(ids)-1]); st.State != JobDone {
		t.Errorf("newest job is %q", st.State)
	}
	if st := getStatus(t, ts, live.ID); st.State != JobRunning {
		t.Errorf("live job is %q: retired or finished early", st.State)
	}

	sims := s.metrics.SimsExecuted.Load()
	code, sr, _ := postJob(t, ts, body(0))
	if code != http.StatusOK || !sr.Cached || sr.State != JobDone || sr.ID == ids[0] {
		t.Errorf("resubmitting a forgotten job's spec: status %d, %+v; want a fresh job served from the cache", code, sr)
	}
	if got := s.metrics.SimsExecuted.Load(); got != sims {
		t.Errorf("the resubmission ran %d simulation(s)", got-sims)
	}

	// A canceled job is forgotten like any other once it is old enough.
	if j, ok := s.lookup(live.ID); ok {
		j.Cancel()
		accounted(&s.metrics.JobsCanceled, 1)
	}
	for i := 0; i < bound; i++ {
		_, sr, _ := postJob(t, ts, body(100+i))
		waitState(t, ts, sr.ID, JobDone, 10*time.Second)
	}
	if resp, _ := getRaw(t, ts, live.ID); resp.StatusCode != http.StatusNotFound {
		t.Errorf("canceled job %s still answers %d after %d newer terminal jobs", live.ID, resp.StatusCode, bound)
	}
}
