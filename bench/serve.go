package main

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"nord/internal/fleet"
	"nord/internal/serve"
	"nord/internal/sim"
)

type serveMode int

const (
	modeClosed serveMode = iota // serve_closed: every job distinct, local service
	modeHit                     // serve_cache_hit: known specs resubmitted
	modeFleet                   // fleet_durable: modeClosed's jobs through the fleet
)

// numClients is the closed-loop client count of every serving workload:
// the users of nordserved are scripts that wait for each reply.
const numClients = 2

// serveWorkload drives a booted service over HTTP with closed-loop
// clients: serve_closed, serve_cache_hit and fleet_durable.
type serveWorkload struct {
	cfg  *config
	mode serveMode

	svc *service
	cs  clientSet

	passes int
	next   int // next unused distinct job index

	// modeHit: the pre-populated specs, their results, and the digest of
	// those results.
	known       [][]byte
	knownResult [][]byte
	knownDigest string

	// The first round's leading jobs, re-run through serve.ExecuteRequest
	// by verify: every path must produce the same bytes.
	sampleIdx     []int
	samplePayload [][]byte

	afterSetup map[string]float64 // /metrics when the window opened
	atVerify   map[string]float64
	burst      struct{ sims, hits float64 } // /metrics deltas over the singleflight burst
	counts     map[string]int               // calls inside each batched microbenchmark span
	localP50   float64                      // fleet_durable: the same jobs' median latency on a local service
}

// clientSet is the closed-loop load generator: numClients clients, each
// with its own connection and, in the traced phase, its own track.
type clientSet struct {
	clients [numClients]*apiClient
	tracks  [numClients]*track
}

func newClientSet(url string) clientSet {
	var cs clientSet
	for k := range cs.clients {
		cs.clients[k] = newAPIClient(url)
	}
	return cs
}

func (cs *clientSet) close() {
	for _, c := range cs.clients {
		if c != nil {
			c.close()
		}
	}
}

func newServeWorkload(cfg *config, mode serveMode) *serveWorkload {
	return &serveWorkload{cfg: cfg, mode: mode, counts: map[string]int{}}
}

func (w *serveWorkload) repeatable() bool { return false }

func (w *serveWorkload) jobsPerPass() int {
	if w.mode == modeHit {
		return w.cfg.scale(2000, 200)
	}
	return w.cfg.scale(20, 8)
}

func (w *serveWorkload) close() {
	w.cs.close()
	if w.svc != nil {
		w.svc.stop()
	}
}

// setup pays the cold planner bill for the 4x4 mesh, boots the service
// and runs the unmeasured jobs: 40 warm-up jobs, or serve_cache_hit's 256
// specs whose results the window then asks for again.
func (w *serveWorkload) setup(e *env) error {
	d, err := coldPlanner("mesh", 4)
	if err != nil {
		return err
	}
	e.set("topology.planner_cold_ms.mesh4", ms(d))

	known := w.cfg.scale(256, 16)
	switch w.mode {
	case modeClosed:
		w.svc, err = startLocal(serve.Config{Workers: numClients})
	case modeHit:
		// The memory cache holds half the working set; the rest lives in
		// the spill directory.
		w.svc, err = startLocal(serve.Config{Workers: numClients, CacheEntries: known / 2, CacheDir: filepath.Join(e.dir, "cache")})
	case modeFleet:
		w.svc, err = startFleet(e.dir)
	}
	if err != nil {
		return err
	}
	w.cs = newClientSet(w.svc.url)

	if w.mode == modeHit {
		w.known = make([][]byte, known)
		for i := range w.known {
			w.known[i] = jobBody(w.cfg, i)
		}
		w.knownResult = w.cs.runJobs(e, known, func(i int) (int64, []byte) { return int64(i), w.known[i] }, nil)
		dg := newResultDigest()
		for i, p := range w.knownResult {
			if p == nil {
				return fmt.Errorf("pre-populating spec %d failed", i)
			}
			var r sim.Result
			if err := json.Unmarshal(p, &r); err != nil {
				return err
			}
			dg.add(r)
		}
		w.knownDigest = dg.sum()
		w.next = known
	} else {
		warm := w.cfg.scale(40, 4)
		w.cs.runJobs(e, warm, func(i int) (int64, []byte) { return int64(i - warm), jobBody(w.cfg, i-warm) }, nil)
	}
	e.takeLatencies() // set-up jobs are not samples
	w.afterSetup, err = w.cs.clients[0].scrape()
	return err
}

// runJobs runs n jobs split round-robin over the closed-loop clients and
// returns their payloads by position (nil where a job failed). check,
// when non-nil, judges each completed job.
func (cs *clientSet) runJobs(e *env, n int, job func(i int) (op int64, body []byte), check func(i int, payload []byte, cached bool) error) [][]byte {
	payloads := make([][]byte, n)
	var wg sync.WaitGroup
	for k := 0; k < numClients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < n; i += numClients {
				op, body := job(i)
				e.attempt(1)
				t := time.Now()
				p, cached, err := cs.clients[k].runJob(cs.tracks[k], "/v1/jobs", op, body)
				if err == nil && check != nil {
					err = check(i, p, cached)
				}
				if err != nil {
					e.fail(1, "job %d: %v", op, err)
					continue
				}
				e.op(time.Since(t))
				payloads[i] = p
			}
		}(k)
	}
	wg.Wait()
	return payloads
}

// round is one pass of jobsPerPass closed-loop jobs: a single op class.
func (w *serveWorkload) round(e *env) (string, error) {
	if e.tr != nil && w.cs.tracks[0] == nil {
		for k := range w.cs.tracks {
			w.cs.tracks[k] = e.tr.newTrack()
		}
	}
	first := w.passes == 0
	w.passes++
	n := w.jobsPerPass()

	if w.mode == modeHit {
		var draws [numClients][]int
		for k := range draws {
			draws[k] = zipfIndices(w.cfg.seed*7919+int64(w.passes*numClients+k), n/numClients+1, len(w.known))
		}
		spec := func(i int) int { return draws[i%numClients][i/numClients] }
		t := time.Now()
		done := w.cs.runJobs(e, n,
			func(i int) (int64, []byte) { return int64(spec(i)), w.known[spec(i)] },
			func(i int, p []byte, cached bool) error {
				if !cached {
					return fmt.Errorf("resubmitted spec %d was not answered from cache", spec(i))
				}
				if !bytes.Equal(p, w.knownResult[spec(i)]) {
					return fmt.Errorf("cached result of spec %d differs from the one first computed", spec(i))
				}
				return nil
			})
		e.unit(0, countDone(done), time.Since(t))
		return w.knownDigest, nil
	}

	base := w.next
	w.next += n
	t := time.Now()
	done := w.cs.runJobs(e, n, func(i int) (int64, []byte) { return int64(base + i), jobBody(w.cfg, base+i) }, nil)
	e.unit(0, countDone(done), time.Since(t))
	if !first {
		return "", nil
	}
	dg := newResultDigest()
	for i, p := range done {
		if p == nil {
			continue
		}
		var r sim.Result
		if err := json.Unmarshal(p, &r); err != nil {
			return "", err
		}
		dg.add(r)
		if len(w.sampleIdx) < 8 {
			w.sampleIdx = append(w.sampleIdx, base+i)
			w.samplePayload = append(w.samplePayload, p)
		}
	}
	return dg.sum(), nil
}

func countDone(payloads [][]byte) float64 {
	n := 0
	for _, p := range payloads {
		if p != nil {
			n++
		}
	}
	return float64(n)
}

// verify re-runs sampled specs through serve.ExecuteRequest (no HTTP, no
// queue, no fleet): the bytes must equal what the service returned. It
// also holds the service to its counters: nothing refused, and on
// serve_cache_hit not one simulation inside the window.
func (w *serveWorkload) verify(e *env) error {
	idx, want := w.sampleIdx, w.samplePayload
	if w.mode == modeHit {
		for i := 0; i < 4 && i < len(w.known); i++ {
			idx, want = append(idx, i), append(want, w.knownResult[i])
		}
	}
	for i, j := range idx {
		e.attempt(1)
		got, _, err := serve.ExecuteRequest(context.Background(), jobRequest(w.cfg, j), sim.RunOptions{})
		if err != nil {
			e.fail(1, "ExecuteRequest of job %d: %v", j, err)
		} else if !bytes.Equal(got, want[i]) {
			e.fail(1, "job %d: the service's payload differs from serve.ExecuteRequest's", j)
		}
	}
	m, err := w.cs.clients[0].scrape()
	if err != nil {
		return err
	}
	w.atVerify = m
	e.attempt(1)
	if refused := m["nord_jobs_rejected_total"]; refused > 0 {
		e.fail(1, "%v submissions were refused with 429", refused)
	}
	if w.mode == modeHit {
		e.attempt(1)
		if sims := m["nord_sims_executed_total"] - w.afterSetup["nord_sims_executed_total"]; sims != 0 {
			e.fail(1, "%v simulations ran inside the cache-hit window", sims)
		}
	}
	if w.mode == modeFleet {
		for _, name := range []string{"nord_fleet_local_jobs_total", "nord_fleet_requeues_total", "nord_fleet_lease_expiries_total", "nord_fleet_cache_tier_errors_total"} {
			if m[name] != 0 {
				e.note("%s=%v (expected 0)", name, m[name])
			}
		}
	}
	return nil
}

// ---- traced run ----

func (w *serveWorkload) layers(e *env) error {
	k := e.main
	c := w.cs.clients[0]

	for i := 0; i < 5; i++ {
		k.begin("serve.http.metrics", "", int64(i))
		_, err := c.scrape()
		k.end()
		if err != nil {
			return err
		}
	}

	// serve.ExecuteRequest alone: the cost of a job without HTTP, queue or
	// cache, on specs no pass has used. (serve_cache_hit runs no sims, so
	// it has nothing to compare with.)
	for i := 0; w.mode != modeHit && i < w.cfg.scale(16, 4); i++ {
		j := w.next
		w.next++
		k.begin("serve.ExecuteRequest", "", int64(j))
		_, _, err := serve.ExecuteRequest(context.Background(), jobRequest(w.cfg, j), sim.RunOptions{})
		k.end()
		if err != nil {
			return err
		}
	}

	if err := w.singleflight(e); err != nil {
		return err
	}
	switch w.mode {
	case modeHit:
		return w.cacheMicro(e)
	case modeFleet:
		return w.fleetMicro(e)
	}
	return nil
}

// singleflight posts one unused spec 16 times at once: the service must
// run exactly one simulation and answer everybody.
func (w *serveWorkload) singleflight(e *env) error {
	const fanIn = 16
	c := w.cs.clients[0]
	before, err := c.scrape()
	if err != nil {
		return err
	}
	body := jobBody(w.cfg, w.next)
	w.next++
	e.attempt(fanIn)
	e.main.begin("serve.singleflight", "", 0)
	var wg sync.WaitGroup
	for i := 0; i < fanIn; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := c.runJob(nil, "/v1/jobs", 0, body); err != nil {
				e.fail(1, "singleflight: %v", err)
			}
		}()
	}
	wg.Wait()
	e.main.end()
	after, err := c.scrape()
	if err != nil {
		return err
	}
	w.burst.sims = after["nord_sims_executed_total"] - before["nord_sims_executed_total"]
	w.burst.hits = after["nord_cache_hits_total"] - before["nord_cache_hits_total"]
	e.attempt(1)
	if w.burst.sims != 1 {
		e.fail(1, "%d concurrent identical submissions ran %v simulations, want 1", fanIn, w.burst.sims)
	}
	return nil
}

// batch records one span around n calls of f.
func (w *serveWorkload) batch(k *track, name string, n int, f func(i int)) {
	k.begin(name, "", 0)
	for i := 0; i < n; i++ {
		f(i)
	}
	k.end()
	w.counts[name] += n
}

// cacheMicro times the content-addressed read and write path in
// isolation: key derivation, and a serve.Cache whose memory tier holds
// half of its keys.
func (w *serveWorkload) cacheMicro(e *env) error {
	k := e.main
	cfg := sim.SynthConfig{Width: 4, Height: 4, Rate: 0.05, Measure: 5000, Seed: w.cfg.seed}.Filled()
	var err error
	w.batch(k, "serve.CanonicalJSON", 2000, func(int) {
		if _, cerr := serve.CanonicalJSON(cfg); cerr != nil {
			err = cerr
		}
	})
	w.batch(k, "serve.CacheKey", 2000, func(int) {
		if _, cerr := serve.CacheKey("synthetic", cfg); cerr != nil {
			err = cerr
		}
	})
	if err != nil {
		return err
	}

	nkeys := len(w.known)
	keys := make([]string, nkeys)
	for i := range keys {
		sum := sha256.Sum256([]byte(fmt.Sprintf("bench-key-%d", i)))
		keys[i] = hex.EncodeToString(sum[:])
	}
	dir := filepath.Join(e.dir, "cache-micro")
	cache, err := serve.NewCache(nkeys/2, dir)
	if err != nil {
		return err
	}
	payload := w.knownResult[0]
	w.batch(k, "serve.Cache.Put", nkeys, func(i int) { cache.Put(keys[i], payload) })
	// Memory now holds the later half; the earlier half is on disk only,
	// and reading it in order never finds a key already promoted.
	miss := 0
	w.batch(k, "serve.Cache.Get.disk", nkeys/2, func(i int) {
		if _, ok := cache.Get(keys[i]); !ok {
			miss++
		}
	})
	w.batch(k, "serve.Cache.Get.mem", 2000, func(int) {
		if _, ok := cache.Get(keys[0]); !ok {
			miss++
		}
	})
	e.attempt(1)
	if miss > 0 {
		e.fail(1, "%d serve.Cache.Get calls missed entries that were Put", miss)
	}

	// Replay a window's worth of Zipf draws against a fresh cache over the
	// same spill directory, with a shadow LRU telling memory from disk.
	replay, err := serve.NewCache(nkeys/2, dir)
	if err != nil {
		return err
	}
	shadow := newShadowLRU(nkeys / 2)
	draws := zipfIndices(w.cfg.seed, w.jobsPerPass(), nkeys)
	memHits := 0
	w.batch(k, "serve.Cache.Get.zipf", len(draws), func(i int) {
		if shadow.touch(draws[i]) {
			memHits++
		}
		replay.Get(keys[draws[i]])
	})
	e.set("serve.cache_mem_hit_share", float64(memHits)/float64(len(draws)))
	return nil
}

// shadowLRU mirrors serve.Cache's memory tier (Get promotes, a disk hit
// inserts at the front and evicts from the back) to tell which lookups
// the memory tier answers.
type shadowLRU struct {
	cap int
	ll  *list.List
	m   map[int]*list.Element
}

func newShadowLRU(capacity int) *shadowLRU {
	return &shadowLRU{cap: capacity, ll: list.New(), m: map[int]*list.Element{}}
}

// touch looks key up and reports whether it was in memory.
func (s *shadowLRU) touch(key int) bool {
	if el, ok := s.m[key]; ok {
		s.ll.MoveToFront(el)
		return true
	}
	s.m[key] = s.ll.PushFront(key)
	for s.ll.Len() > s.cap {
		back := s.ll.Back()
		s.ll.Remove(back)
		delete(s.m, back.Value.(int))
	}
	return false
}

// fleetMicro times the fleet's own mechanisms in isolation — journal
// append and replay, cache-tier round trips — and runs the same jobs
// through a local service for the per-job price of the fleet.
func (w *serveWorkload) fleetMicro(e *env) error {
	k := e.main
	dir := filepath.Join(e.dir, "journal-micro")
	jl, err := fleet.OpenJournal(dir, fleet.JournalOptions{})
	if err != nil {
		return err
	}
	req := jobBody(w.cfg, 0)
	w.batch(k, "fleet.Journal.Submit", w.cfg.scale(200, 20), func(i int) {
		jl.Submit(fmt.Sprintf("j%06d", i+1), "bench", req)
	})
	if jl.Broken() {
		return fmt.Errorf("journal append failed")
	}
	if err := jl.Close(); err != nil {
		return err
	}
	k.begin("fleet.OpenJournal", "replay", 0)
	jl, err = fleet.OpenJournal(dir, fleet.JournalOptions{})
	k.end()
	if err != nil {
		return err
	}
	e.attempt(1)
	if got, want := len(jl.Recovered()), w.counts["fleet.Journal.Submit"]; got != want {
		e.fail(1, "journal replay recovered %d jobs, appended %d", got, want)
	}
	if err := jl.Close(); err != nil {
		return err
	}

	// Cache-tier round trips, as a worker makes them.
	payload := w.samplePayload[0]
	sum := sha256.Sum256(payload)
	digest := hex.EncodeToString(sum[:])
	c := w.cs.clients[0]
	for i := 0; i < 20; i++ {
		keySum := sha256.Sum256([]byte(fmt.Sprintf("bench-tier-%d", i)))
		url := w.svc.url + "/v1/cache/" + hex.EncodeToString(keySum[:])
		e.attempt(2)
		k.begin("fleet.tier.put", "", int64(i))
		req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(payload))
		if err != nil {
			return err
		}
		req.Header.Set(serve.SumHeader, digest)
		resp, err := c.hc.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		k.end()
		if err != nil || resp.StatusCode != http.StatusNoContent {
			e.fail(2, "tier PUT was not accepted (%v)", err)
			continue
		}
		k.begin("fleet.tier.get", "", int64(i))
		resp, err = c.hc.Get(url)
		var got bytes.Buffer
		if err == nil {
			_, err = got.ReadFrom(resp.Body)
			resp.Body.Close()
		}
		k.end()
		if err != nil || !bytes.Equal(got.Bytes(), payload) {
			e.fail(1, "tier GET returned other bytes than were PUT (%v)", err)
		}
	}

	// The reference: one pass of unused jobs through a local service.
	local, err := startLocal(serve.Config{Workers: numClients})
	if err != nil {
		return err
	}
	defer local.stop()
	ref := newClientSet(local.url)
	defer ref.close()
	n := w.jobsPerPass()
	base := w.next
	w.next += n
	ref.runJobs(e, n, func(i int) (int64, []byte) { return int64(base + i), jobBody(w.cfg, base+i) }, nil)
	w.localP50 = median(e.takeLatencies())
	return nil
}

func (w *serveWorkload) derive(e *env, ss *spanSet) {
	jobP50 := median(ss.durationsMS("bench.job", "/v1/jobs"))
	if exec := median(ss.durationsMS("serve.ExecuteRequest", "")); exec > 0 {
		e.set("serve.execute_request_ms", exec)
		e.set("serve.overhead_ms", jobP50-exec)
	}
	e.set("serve.submit_rtt_ms", median(ss.durationsMS("serve.http.submit", "")))
	e.set("serve.get_result_ms", median(ss.durationsMS("serve.http.result", "")))
	e.set("serve.metrics_scrape_ms", median(ss.durationsMS("serve.http.metrics", "")))
	e.set("serve.singleflight_fanin_ms", median(ss.durationsMS("serve.singleflight", "")))
	e.set("serve.singleflight_sims", w.burst.sims)
	e.set("serve.coalesced", w.burst.hits)
	if w.mode == modeHit {
		e.set("serve.result_bytes", float64(len(w.knownResult[0])))
	} else if len(w.samplePayload) > 0 {
		e.set("serve.result_bytes", float64(len(w.samplePayload[0])))
	}

	// Counter movement over the untraced window (set-up excluded).
	delta := func(name string) float64 { return w.atVerify[name] - w.afterSetup[name] }
	e.set("serve.sims_executed", delta("nord_sims_executed_total"))
	e.set("serve.cache_hits", delta("nord_cache_hits_total"))
	e.set("serve.rejected_429", delta("nord_jobs_rejected_total"))

	perCallUS := func(span string) float64 {
		if n := w.counts[span]; n > 0 {
			return us(ss.selfSum(span, "")) / float64(n)
		}
		return 0
	}
	if w.mode == modeHit {
		e.set("serve.canonical_json_us", perCallUS("serve.CanonicalJSON"))
		// CacheKey canonicalises too; the metric is the whole call.
		e.set("serve.cache_key_us", perCallUS("serve.CacheKey"))
		e.set("serve.cache_put_us", perCallUS("serve.Cache.Put"))
		e.set("serve.cache_get_mem_us", perCallUS("serve.Cache.Get.mem"))
		e.set("serve.cache_get_disk_us", perCallUS("serve.Cache.Get.disk"))
	}
	if w.mode == modeFleet {
		e.set("fleet.journal_append_us", perCallUS("fleet.Journal.Submit"))
		e.set("fleet.journal_open_replay_ms", median(ss.durationsMS("fleet.OpenJournal", "")))
		e.set("fleet.tier_get_ms", median(ss.durationsMS("fleet.tier.get", "")))
		e.set("fleet.tier_put_ms", median(ss.durationsMS("fleet.tier.put", "")))
		e.set("fleet.overhead_ms", jobP50-w.localP50)
		e.set("fleet.leases_granted", delta("nord_fleet_leases_granted_total"))
		e.set("fleet.journal_appends", delta("nord_fleet_journal_appends_total"))
		e.set("fleet.tier_hits", delta("nord_cache_remote_hits_total"))
		e.set("fleet.local_jobs", delta("nord_fleet_local_jobs_total"))
		e.set("fleet.requeues", delta("nord_fleet_requeues_total"))
		e.set("fleet.lease_expiries", delta("nord_fleet_lease_expiries_total"))
		e.set("fleet.tier_errors", delta("nord_fleet_cache_tier_errors_total"))
	}
}
