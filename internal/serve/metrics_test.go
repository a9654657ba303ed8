package serve

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"nord/internal/noc"
)

// goldenMetrics is a fixed counter state with every series distinct, so a
// row wired to the wrong counter shows up in the exposition.
func goldenMetrics() (*Metrics, Gauges) {
	m := new(Metrics)
	for i, c := range []interface{ Store(uint64) }{
		&m.JobsSubmitted, &m.JobsRejected, &m.JobsDone, &m.JobsFailed, &m.JobsCanceled,
		&m.SimsExecuted, &m.CacheHits, &m.CacheMisses, &m.SimCycles,
		&m.SearchEvaluations, &m.SearchCacheHits, &m.SearchGenerations, &m.SearchFrontSize,
		&m.CacheRemoteHits, &m.CacheRemoteMisses, &m.CacheRemotePuts,
		&m.CacheRemotePutRejected,
	} {
		c.Store(uint64(101 + i))
	}
	m.SimCycles.Store(1<<63 + 7) // past int64: the value column is unsigned
	for _, d := range noc.Designs() {
		m.AddRun(d, uint64(10+d), uint64(20+d))
	}
	for _, d := range []time.Duration{-time.Millisecond, 20 * time.Microsecond, 3 * time.Millisecond, 3 * time.Millisecond, time.Minute} {
		m.SubmitSeconds.Observe(d)
	}
	m.GetSeconds.Observe(25 * time.Microsecond)
	m.AddRun(noc.Design(9), 1, 1) // out of range: ignored
	return m, Gauges{QueueDepth: 1, Workers: 2, BusyWorkers: 3, CacheEntries: 4, JobsQueued: 5, JobsRunning: 6}
}

// TestMetricsExpositionGolden: /metrics is an interface — dashboards and
// bench/client.go scrape these names — so the exposition for a fixed
// counter state is pinned byte for byte. testdata/metrics.golden was
// rendered by the hand-unrolled writer WriteSeries replaced.
func TestMetricsExpositionGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	m, g := goldenMetrics()
	var got bytes.Buffer
	m.WriteProm(&got, g)
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("exposition differs from testdata/metrics.golden:\n%s", got.Bytes())
	}
	// The one series the handler adds itself.
	_, ts := newTestServer(t, Config{Workers: 1})
	const quarantined = "# HELP nord_cache_corrupt_quarantined_total Spill files quarantined (*.corrupt) on digest mismatch.\n" +
		"# TYPE nord_cache_corrupt_quarantined_total counter\nnord_cache_corrupt_quarantined_total 0\n"
	if body := scrape(t, ts); !strings.HasSuffix(body, quarantined) {
		t.Errorf("/metrics does not end with the quarantine series:\n%s", body)
	}
}
