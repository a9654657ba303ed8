package serve

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"nord/internal/noc"
)

// Metrics is the serve layer's counter set, rendered in Prometheus text
// exposition format at /metrics. Counters are cumulative since process
// start; gauges are sampled at scrape time by the server.
type Metrics struct {
	JobsSubmitted atomic.Uint64 // accepted submissions, including cache hits
	JobsRejected  atomic.Uint64 // 429 queue-full rejections
	JobsDone      atomic.Uint64
	JobsFailed    atomic.Uint64
	JobsCanceled  atomic.Uint64
	SimsExecuted  atomic.Uint64 // simulations actually run (not served from cache)
	CacheHits     atomic.Uint64 // coalesced onto an in-flight job or served from cache
	CacheMisses   atomic.Uint64
	SimCycles     atomic.Uint64 // cumulative simulated cycles across all jobs

	// Design-space search (POST /v1/search) counters: candidate
	// evaluations submitted by search drivers, how many of those were
	// served from the content-addressed cache (in-flight coalescing
	// included), and completed search generations. SearchFrontSize is a
	// gauge holding the Pareto-front size of the most recently completed
	// search.
	SearchEvaluations atomic.Uint64
	SearchCacheHits   atomic.Uint64
	SearchGenerations atomic.Uint64
	SearchFrontSize   atomic.Uint64

	// GET/PUT /v1/cache/{key} counters: hits and misses served to
	// outside readers, payloads stored for outside writers, and PUTs
	// rejected for a digest mismatch.
	CacheRemoteHits        atomic.Uint64
	CacheRemoteMisses      atomic.Uint64
	CacheRemotePuts        atomic.Uint64
	CacheRemotePutRejected atomic.Uint64

	// Per-design counters, indexed by noc.Design: router wakeups and
	// misrouted (detoured) hops measured by completed single-run jobs.
	// Sweeps do not contribute (their cells span designs).
	SimWakeups [noc.NumDesigns]atomic.Uint64
	SimDetours [noc.NumDesigns]atomic.Uint64

	// Server-side handler time of POST /v1/jobs and GET /v1/jobs/{id} —
	// what the ladder's op_latency_p50_ms sees from outside, minus the
	// network and the client.
	SubmitSeconds Histogram
	GetSeconds    Histogram
}

// latencyBounds are the histograms' upper bounds: fixed and log-spaced,
// 25 µs (a cache hit) to 10 s (a large simulation), 1-2.5-5 per decade.
var latencyBounds = [...]time.Duration{
	25 * time.Microsecond, 50 * time.Microsecond, 100 * time.Microsecond,
	250 * time.Microsecond, 500 * time.Microsecond, time.Millisecond,
	2500 * time.Microsecond, 5 * time.Millisecond, 10 * time.Millisecond,
	25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond,
	250 * time.Millisecond, 500 * time.Millisecond, time.Second,
	2500 * time.Millisecond, 5 * time.Second, 10 * time.Second,
}

// Histogram is a latency distribution over latencyBounds: one atomic
// counter per bucket (the last is +Inf) and the sum, nothing allocated.
type Histogram struct {
	buckets [len(latencyBounds) + 1]atomic.Uint64
	sumNS   atomic.Uint64
}

// Observe counts one duration.
func (h *Histogram) Observe(d time.Duration) {
	i := 0
	for i < len(latencyBounds) && d > latencyBounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sumNS.Add(uint64(max(d, 0)))
}

// writeProm renders the series of one label set, buckets cumulative as
// the exposition format wants them.
func (h *Histogram) writeProm(w io.Writer, name, labels string) {
	var n uint64
	for i, le := range latencyBounds {
		n += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s,le=\"%g\"} %d\n", name, labels, le.Seconds(), n)
	}
	n += h.buckets[len(latencyBounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, n)
	fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, time.Duration(h.sumNS.Load()).Seconds())
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, n)
}

// AddRun folds one completed run's headline counters into the per-design
// series.
func (m *Metrics) AddRun(d noc.Design, wakeups, detours uint64) {
	if int(d) < 0 || int(d) >= len(m.SimWakeups) {
		return
	}
	m.SimWakeups[d].Add(wakeups)
	m.SimDetours[d].Add(detours)
}

// Gauges are the point-in-time values the server samples at scrape time.
type Gauges struct {
	QueueDepth   int
	Workers      int
	BusyWorkers  int
	CacheEntries int
	JobsQueued   int
	JobsRunning  int
}

// Series is one unlabelled series of the exposition: a name, its HELP
// and TYPE lines, and the sample.
type Series struct {
	Name, Help, Type string
	Value            uint64
}

// WriteSeries renders rows in Prometheus text exposition format, in
// order. Every unlabelled series of /metrics is one row here; labelled
// families and histograms keep their own loops.
func WriteSeries(w io.Writer, rows []Series) {
	for _, r := range rows {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", r.Name, r.Help, r.Name, r.Type, r.Name, r.Value)
	}
}

// WriteProm renders the metrics in Prometheus text exposition format.
func (m *Metrics) WriteProm(w io.Writer, g Gauges) {
	fmt.Fprintf(w, "# HELP nord_jobs_total Jobs that reached a terminal state, by state.\n")
	fmt.Fprintf(w, "# TYPE nord_jobs_total counter\n")
	fmt.Fprintf(w, "nord_jobs_total{state=\"done\"} %d\n", m.JobsDone.Load())
	fmt.Fprintf(w, "nord_jobs_total{state=\"failed\"} %d\n", m.JobsFailed.Load())
	fmt.Fprintf(w, "nord_jobs_total{state=\"canceled\"} %d\n", m.JobsCanceled.Load())
	WriteSeries(w, []Series{
		{"nord_jobs_submitted_total", "Accepted job submissions (including cache hits).", "counter", m.JobsSubmitted.Load()},
		{"nord_jobs_rejected_total", "Submissions rejected with 429 (queue full).", "counter", m.JobsRejected.Load()},
		{"nord_sims_executed_total", "Simulations actually executed (cache misses that ran).", "counter", m.SimsExecuted.Load()},
		{"nord_cache_hits_total", "Content-addressed cache hits (in-flight coalescing included).", "counter", m.CacheHits.Load()},
		{"nord_cache_misses_total", "Content-addressed cache misses.", "counter", m.CacheMisses.Load()},
		{"nord_cache_remote_hits_total", "Remote cache tier hits served over GET /v1/cache/{key}.", "counter", m.CacheRemoteHits.Load()},
		{"nord_cache_remote_misses_total", "Remote cache tier misses (GET /v1/cache/{key} 404s).", "counter", m.CacheRemoteMisses.Load()},
		{"nord_cache_remote_puts_total", "Payloads written back over PUT /v1/cache/{key}.", "counter", m.CacheRemotePuts.Load()},
		{"nord_cache_remote_put_rejected_total", "Cache tier PUTs rejected for a payload digest mismatch.", "counter", m.CacheRemotePutRejected.Load()},
		{"nord_sim_cycles_total", "Cumulative simulated cycles across all jobs.", "counter", m.SimCycles.Load()},
		{"nord_search_evaluations_total", "Candidate evaluations submitted by design-space searches.", "counter", m.SearchEvaluations.Load()},
		{"nord_search_cache_hits_total", "Search candidate evaluations served from the content-addressed cache or coalesced onto in-flight jobs.", "counter", m.SearchCacheHits.Load()},
		{"nord_search_generations_total", "Completed search generations.", "counter", m.SearchGenerations.Load()},
		{"nord_search_front_size", "Pareto-front size of the most recently completed search.", "gauge", m.SearchFrontSize.Load()},
	})
	// Every design's series is emitted, zeros included, so dashboards see
	// a stable label set from the first scrape.
	fmt.Fprintf(w, "# HELP nord_sim_wakeups_total Router wakeups measured by completed runs, by design.\n")
	fmt.Fprintf(w, "# TYPE nord_sim_wakeups_total counter\n")
	for _, d := range noc.Designs() {
		fmt.Fprintf(w, "nord_sim_wakeups_total{design=%q} %d\n", d.String(), m.SimWakeups[d].Load())
	}
	fmt.Fprintf(w, "# HELP nord_sim_detours_total Misrouted (detoured) hops measured by completed runs, by design.\n")
	fmt.Fprintf(w, "# TYPE nord_sim_detours_total counter\n")
	for _, d := range noc.Designs() {
		fmt.Fprintf(w, "nord_sim_detours_total{design=%q} %d\n", d.String(), m.SimDetours[d].Load())
	}
	fmt.Fprintf(w, "# HELP nord_http_request_duration_seconds Handler time of POST /v1/jobs (submit) and GET /v1/jobs/{id} (get).\n")
	fmt.Fprintf(w, "# TYPE nord_http_request_duration_seconds histogram\n")
	m.SubmitSeconds.writeProm(w, "nord_http_request_duration_seconds", `route="submit"`)
	m.GetSeconds.writeProm(w, "nord_http_request_duration_seconds", `route="get"`)
	WriteSeries(w, []Series{
		{"nord_queue_depth", "Jobs waiting in the scheduler queue.", "gauge", uint64(g.QueueDepth)},
		{"nord_workers", "Worker pool size.", "gauge", uint64(g.Workers)},
		{"nord_workers_busy", "Workers currently executing a job.", "gauge", uint64(g.BusyWorkers)},
		{"nord_cache_entries", "In-memory cache entries.", "gauge", uint64(g.CacheEntries)},
		{"nord_jobs_queued", "Jobs in queued state.", "gauge", uint64(g.JobsQueued)},
		{"nord_jobs_running", "Jobs in running state.", "gauge", uint64(g.JobsRunning)},
	})
}
