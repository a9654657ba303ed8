package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"nord/internal/search"
	"nord/internal/sim"
	"nord/internal/stats"
)

// Design-space search jobs (POST /v1/search). A search is an ordinary
// job to clients — it has an ID, /events progress, DELETE cancellation
// and a JSON result — but it executes on a dedicated goroutine instead
// of the worker pool: a search spends its life waiting on child
// evaluations, and parking it in the pool could deadlock the pool
// against itself. Its children are plain synthetic jobs submitted
// through the Dispatcher seam, so they coalesce in-flight, memoize in
// the content-addressed cache across generations and users, and fan out
// to fleet workers when a coordinator has them.
//
// Search jobs themselves are never memoized: a completed search drops
// its dedup-index entry, so resubmitting an identical spec re-runs the
// loop (cheaply — its children hit the cache). Only concurrent identical
// searches coalesce.

// resolveSearch canonicalizes and validates a search spec; errors are
// client errors.
func resolveSearch(spec *search.Spec) (search.Spec, *task, error) {
	filled := spec.Filled()
	if err := filled.Validate(); err != nil {
		return filled, nil, err
	}
	key, err := CacheKey("search", filled)
	if err != nil {
		return filled, nil, err
	}
	// task.run stays nil: search jobs never enter a Dispatcher.
	return filled, &task{kind: "search", key: key, src: filled}, nil
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	var spec search.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	filled, t, err := resolveSearch(&spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.mu.Lock()
	// A live identical search: coalesce onto it rather than racing two
	// loops over the same frontier.
	if j, ok := s.byKey[t.key]; ok {
		s.metrics.JobsSubmitted.Add(1)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, submitResponse{ID: j.ID, Key: j.Key, State: j.State(), Cached: true})
		return
	}
	if s.searches >= maxSearches {
		s.mu.Unlock()
		s.tooManyRequests(w, "search limit reached")
		return
	}
	s.searches++
	j := s.newJobLocked(t)
	s.metrics.JobsSubmitted.Add(1)
	s.searchWG.Add(1)
	s.mu.Unlock()
	go s.runSearch(j, filled)
	writeJSON(w, http.StatusAccepted, submitResponse{ID: j.ID, Key: j.Key, State: JobQueued, Cached: false})
}

// runSearch drives one search to completion on its own goroutine.
func (s *Server) runSearch(j *Job, spec search.Spec) {
	defer s.searchWG.Done()
	defer func() {
		s.mu.Lock()
		s.searches--
		s.mu.Unlock()
	}()
	// Searches are never memoized (see the package comment above); only
	// their children are.
	defer s.dropKey(j)
	if !j.markRunning() {
		s.DropCanceled(j)
		return
	}
	ctx := j.ctx
	if s.cfg.JobDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, s.cfg.JobDeadline, ErrJobDeadline)
		defer cancel()
	}
	d := &search.Driver{
		Spec:        spec,
		Eval:        s.searchEval(),
		Concurrency: s.cfg.Workers,
		Progress: func(u search.Update) {
			s.metrics.SearchGenerations.Add(1)
			// Cycle stays 0: the child evaluation jobs already account
			// their simulated cycles.
			s.PublishProgress(j, stats.Progress{
				Phase:       "generation",
				Generation:  u.Generation,
				Generations: u.Generations,
				Evaluations: u.Evaluations,
				CacheHits:   u.CacheHits,
				FrontSize:   u.FrontSize,
			})
		},
	}
	res, err := d.Run(ctx)
	var payload []byte
	if err == nil {
		payload, err = json.Marshal(res)
	}
	if err != nil {
		s.settle(j, failure(err))
		return
	}
	if s.settle(j, outcome{state: JobDone, payload: payload}) {
		s.metrics.SearchFrontSize.Store(uint64(len(res.Front)))
	}
}

// searchEval builds the EvalFunc wiring a search's candidate
// evaluations into the job machinery: each candidate becomes an ordinary
// synthetic job (content-addressed, coalesced, cached, fleet-eligible),
// retained while this evaluation waits on it and canceled if every
// waiting search abandons it.
func (s *Server) searchEval() search.EvalFunc {
	return func(ctx context.Context, cand search.Candidate) (search.Evaluation, error) {
		req := &JobRequest{Kind: "synthetic", Synthetic: syntheticSpecFor(cand.Sim)}
		t, err := resolveTask(req)
		if err != nil {
			return search.Evaluation{}, fmt.Errorf("serve: resolve candidate: %w", err)
		}
		var (
			child  *Job
			served bool
		)
		for {
			child, served, err = s.submitTask(t, true)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrQueueFull) {
				return search.Evaluation{}, err
			}
			// The queue drains as workers finish; retry instead of failing
			// the whole search on transient backpressure.
			select {
			case <-ctx.Done():
				return search.Evaluation{}, context.Cause(ctx)
			case <-time.After(5 * time.Millisecond):
			}
		}
		s.metrics.SearchEvaluations.Add(1)
		if served {
			s.metrics.SearchCacheHits.Add(1)
		}
		child.retain()
		defer child.release()
		select {
		case <-child.Done():
		case <-ctx.Done():
			return search.Evaluation{}, context.Cause(ctx)
		}
		ev := search.Evaluation{CacheKey: child.Key, Request: t.request(), Cached: served}
		st := child.status(true)
		switch st.State {
		case JobDone:
			var res sim.Result
			if err := json.Unmarshal(st.Result, &res); err != nil {
				return search.Evaluation{}, fmt.Errorf("serve: decode candidate result: %w", err)
			}
			obj, ok := search.Extract(cand.Sim, res)
			ev.Objectives = obj
			ev.Infeasible = !ok
		case JobFailed:
			// Saturated or deadlocked configurations are constraint-
			// dominated points, not search failures.
			ev.Infeasible = true
		default:
			// Canceled out from under us (client DELETE on the child).
			return search.Evaluation{}, fmt.Errorf("serve: candidate evaluation %s canceled", child.ID)
		}
		return ev, nil
	}
}
