package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"nord/internal/search"
	"nord/internal/serve"
)

// searchWorkload is search_nsga2: a round posts searchesPerRound seeded
// NSGA-II searches, each to a fresh service (cold result cache), and waits
// for each front. Each search is an op class.
type searchWorkload struct {
	cfg *config

	svc    *service // the latest search's service, kept for verify's warm rerun
	client *apiClient
	spec   []byte          // the latest search's request body
	front  json.RawMessage // and its front
	stats  search.Stats

	rerunMS float64
}

func newSearchNSGA2(cfg *config) *searchWorkload { return &searchWorkload{cfg: cfg} }

func (w *searchWorkload) repeatable() bool { return true }

func (w *searchWorkload) close() {
	if w.client != nil {
		w.client.close()
		w.client = nil
	}
	if w.svc != nil {
		w.svc.stop()
		w.svc = nil
	}
}

// setup pre-warms the planner for every NoRD grid a candidate can land
// on, so the search itself runs against a warm planner and a cold cache.
func (w *searchWorkload) setup(e *env) error {
	for _, topo := range []string{"mesh", "torus"} {
		for _, width := range []int{4, 8} {
			d, err := coldPlanner(topo, width)
			if err != nil {
				return err
			}
			if name := "topology.planner_cold_ms." + gridName(topo, width); isPerLayer(name) {
				e.set(name, ms(d))
			}
		}
	}
	return nil
}

func isPerLayer(name string) bool {
	for _, m := range perLayer {
		if m.Name == name {
			return true
		}
	}
	return false
}

// runSearch posts spec and waits for the result.
func (w *searchWorkload) runSearch(k *track, op int64, spec []byte) (*search.Result, json.RawMessage, error) {
	payload, _, err := w.client.runJob(k, "/v1/search", op, spec)
	if err != nil {
		return nil, nil, err
	}
	// The outer Front shadows search.Result's, keeping the front's bytes
	// as the service sent them.
	var res struct {
		search.Result
		Front json.RawMessage `json:"front"`
	}
	if err := json.Unmarshal(payload, &res); err != nil {
		return nil, nil, err
	}
	return &res.Result, res.Front, nil
}

func (w *searchWorkload) round(e *env) (string, error) {
	fronts := sha256.New()
	for i := 0; i < searchesPerRound; i++ {
		w.close()
		svc, err := startLocal(serve.Config{Workers: numClients})
		if err != nil {
			return "", err
		}
		w.svc, w.client = svc, newAPIClient(svc.url)
		w.spec, err = json.Marshal(searchSpec(w.cfg, i))
		if err != nil {
			return "", err
		}
		e.attempt(1)
		t := time.Now()
		res, front, err := w.runSearch(e.main, int64(i), w.spec)
		d := time.Since(t)
		if err != nil {
			e.fail(1, "search %d: %v", i, err)
			w.front = nil
			continue
		}
		e.op(d)
		e.unit(i, float64(res.Stats.Evaluations), d)
		w.front, w.stats = front, res.Stats
		fronts.Write(front)
	}
	return hex.EncodeToString(fronts.Sum(nil)), nil
}

// verify reruns the latest search on its now-warm service: the front must
// come back byte for byte (only the cache statistics may differ).
func (w *searchWorkload) verify(e *env) error {
	if w.front == nil {
		return nil // the search itself failed and is already counted
	}
	e.attempt(1)
	t := time.Now()
	_, front, err := w.runSearch(nil, 0, w.spec)
	w.rerunMS = ms(time.Since(t))
	if err != nil {
		e.fail(1, "search rerun: %v", err)
	} else if !bytes.Equal(front, w.front) {
		e.fail(1, "search rerun returned a different front")
	}
	return nil
}

// layers times search.Driver alone: the same spec with an EvalFunc that
// answers from the candidate's own fields, so no simulation runs.
func (w *searchWorkload) layers(e *env) error {
	spec := searchSpec(w.cfg, 0).Filled()
	if err := spec.Validate(); err != nil {
		return err
	}
	d := &search.Driver{Spec: spec, Concurrency: numClients, Eval: func(_ context.Context, c search.Candidate) (search.Evaluation, error) {
		pc := c.Config
		return search.Evaluation{
			CacheKey: fmt.Sprintf("%+v", pc),
			Objectives: search.Objectives{
				LatencyCycles:   20 + 100*pc.Rate + float64(pc.Width),
				EnergyPerFlitPJ: float64(pc.VCs*pc.BufferDepth) / (1 + float64(pc.GateIdle)),
				AreaMM2:         float64(pc.VCs * pc.BufferDepth),
			},
		}, nil
	}}
	e.main.begin("search.Driver.Run", "table-eval", 0)
	_, err := d.Run(context.Background())
	e.main.end()
	return err
}

func (w *searchWorkload) derive(e *env, ss *spanSet) {
	gens := float64(searchSpec(w.cfg, 0).Generations)
	e.set("search.driver_self_ms_per_gen", ms(ss.selfSum("search.Driver.Run", ""))/gens)
	e.set("search.evaluations", float64(w.stats.Evaluations))
	e.set("search.cache_hits", float64(w.stats.CacheHits))
	if w.stats.Evaluations > 0 {
		e.set("search.cache_hit_share", float64(w.stats.CacheHits)/float64(w.stats.Evaluations))
	}
	e.set("search.infeasible", float64(w.stats.Infeasible))
	var front []json.RawMessage
	if json.Unmarshal(w.front, &front) == nil {
		e.set("search.front_size", float64(len(front)))
	}
	e.set("search.warm_rerun_ms", w.rerunMS)
	e.set("serve.submit_rtt_ms", median(ss.durationsMS("serve.http.submit", "")))
	e.set("serve.get_result_ms", median(ss.durationsMS("serve.http.result", "")))
}
