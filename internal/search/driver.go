package search

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// EvalFunc scores one candidate. Implementations must be safe for
// concurrent calls and must honor ctx; the serve layer's implementation
// submits the candidate as an ordinary content-addressed sim job and
// waits for it. Determinism contract: for a fixed candidate the returned
// CacheKey, Request and Objectives must not depend on timing or on other
// in-flight evaluations (Cached may — it is excluded from the front).
type EvalFunc func(ctx context.Context, cand Candidate) (Evaluation, error)

// Update is a per-generation progress snapshot.
type Update struct {
	Generation  int // 1-based, just completed
	Generations int
	Evaluations int // cumulative
	CacheHits   int // cumulative
	FrontSize   int // current non-dominated count over all feasible evals
}

// Driver runs one search to completion.
type Driver struct {
	Spec Spec     // filled and validated
	Eval EvalFunc // required
	// Concurrency bounds in-flight evaluations (default 4). Evaluation
	// results are collected by population index, so concurrency does not
	// perturb the search trajectory.
	Concurrency int
	// Progress, when non-nil, is called after each generation on the
	// driver goroutine.
	Progress func(Update)
}

// record is one evaluated candidate.
type record struct {
	genome Genome
	cand   Candidate
	eval   Evaluation
	gen    int
}

// Run executes the search. The returned front is deterministic for a
// fixed (seed, spec): the seeded RNG runs only on this goroutine,
// parallel evaluations land by index, and every ordering falls back to
// the cache key. Stats is run-dependent (cache warmth) and excluded from
// that contract.
func (d *Driver) Run(ctx context.Context) (*Result, error) {
	if d.Eval == nil {
		return nil, fmt.Errorf("search: Driver.Eval is required")
	}
	return d.runNSGA2(ctx)
}

func (d *Driver) concurrency() int {
	if d.Concurrency > 0 {
		return d.Concurrency
	}
	return 4
}

// evalAll evaluates a population concurrently, collecting results by
// index. The first evaluation error cancels the rest and fails the
// search (infeasible candidates are not errors — see Extract).
func (d *Driver) evalAll(ctx context.Context, gen int, pop []Genome, st *Stats) ([]*record, error) {
	recs := make([]*record, len(pop))
	cands := make([]Candidate, len(pop))
	for i, g := range pop {
		c, err := d.Spec.decode(g)
		if err != nil {
			return nil, err
		}
		cands[i] = c
	}
	ectx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	sem := make(chan struct{}, d.concurrency())
	for i := range pop {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ectx.Done():
				return
			}
			defer func() { <-sem }()
			ev, err := d.Eval(ectx, cands[i])
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				cancel()
				return
			}
			recs[i] = &record{genome: pop[i], cand: cands[i], eval: ev, gen: gen}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	for _, r := range recs {
		st.Evaluations++
		if r.eval.Cached {
			st.CacheHits++
		}
		if r.eval.Infeasible {
			st.Infeasible++
		}
	}
	return recs, nil
}

// rankPop computes NSGA-II (rank, crowding) for a population of records.
// Feasible records are ranked by fast non-dominated sort; infeasible
// ones share a final rank below every feasible front (constraint
// domination) with zero crowding.
func rankPop(recs []*record) (rank []int, crowd []float64) {
	rank = make([]int, len(recs))
	crowd = make([]float64, len(recs))
	var feas []int
	var vecs [][3]float64
	for i, r := range recs {
		if r.eval.Infeasible {
			rank[i] = -1 // placeholder, fixed below
		} else {
			feas = append(feas, i)
			vecs = append(vecs, r.eval.Objectives.vector())
		}
	}
	fronts := nondominatedFronts(vecs)
	for fr, front := range fronts {
		dist := crowdingDistances(front, vecs)
		for _, vi := range front {
			rank[feas[vi]] = fr
			crowd[feas[vi]] = dist[vi]
		}
	}
	for i := range recs {
		if rank[i] == -1 {
			rank[i] = len(fronts)
		}
	}
	return rank, crowd
}

// better is the total order used by tournaments and environmental
// selection: lower rank, then higher crowding, then lower cache key (the
// deterministic tie-break).
func better(i, k int, rank []int, crowd []float64, recs []*record) bool {
	if rank[i] != rank[k] {
		return rank[i] < rank[k]
	}
	if crowd[i] != crowd[k] {
		return crowd[i] > crowd[k]
	}
	return recs[i].eval.CacheKey < recs[k].eval.CacheKey
}

func (d *Driver) runNSGA2(ctx context.Context) (*Result, error) {
	sp := &d.Spec
	rng := rand.New(rand.NewSource(sp.Seed))
	var st Stats
	// archive accumulates every feasible evaluation by cache key, keeping
	// the earliest generation; the final front is drawn from it so points
	// discovered early and bred out later still count.
	archive := map[string]*record{}

	pop := make([]Genome, sp.Population)
	for i := range pop {
		pop[i] = sp.randomGenome(rng.Intn)
	}
	recs, err := d.evalAll(ctx, 0, pop, &st)
	if err != nil {
		return nil, err
	}
	mergeArchive(archive, recs)
	st.Generations = 1
	d.report(1, archive, &st)

	for gen := 1; gen < sp.Generations; gen++ {
		rank, crowd := rankPop(recs)
		tournament := func() int {
			a, b := rng.Intn(len(recs)), rng.Intn(len(recs))
			if better(a, b, rank, crowd, recs) {
				return a
			}
			return b
		}
		offspring := make([]Genome, sp.Population)
		for i := range offspring {
			p1, p2 := tournament(), tournament()
			child := recs[p1].genome
			if rng.Float64() < sp.CrossoverRate {
				// Uniform crossover: each axis from either parent.
				for a := 0; a < numAxes; a++ {
					if rng.Intn(2) == 1 {
						child[a] = recs[p2].genome[a]
					}
				}
			}
			for a := 0; a < numAxes; a++ {
				if rng.Float64() < sp.MutationRate {
					child[a] = rng.Intn(sp.Space.axisLen(a))
				}
			}
			offspring[i] = child
		}
		offRecs, err := d.evalAll(ctx, gen, offspring, &st)
		if err != nil {
			return nil, err
		}
		mergeArchive(archive, offRecs)
		// Environmental selection (mu+lambda): parents and offspring
		// compete, deduped by cache key so one configuration cannot crowd
		// the next generation with copies of itself.
		combined := dedupRecords(append(append([]*record{}, recs...), offRecs...))
		crank, ccrowd := rankPop(combined)
		order := make([]int, len(combined))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			return better(order[a], order[b], crank, ccrowd, combined)
		})
		n := sp.Population
		if n > len(order) {
			n = len(order)
		}
		next := make([]*record, n)
		for i := 0; i < n; i++ {
			next[i] = combined[order[i]]
		}
		recs = next
		st.Generations = gen + 1
		d.report(gen+1, archive, &st)
	}
	return d.finish(archive, &st), nil
}

// mergeArchive folds feasible records into the archive, keeping the
// earliest-generation record per cache key.
func mergeArchive(archive map[string]*record, recs []*record) {
	for _, r := range recs {
		if r == nil || r.eval.Infeasible {
			continue
		}
		if prev, ok := archive[r.eval.CacheKey]; !ok || r.gen < prev.gen {
			archive[r.eval.CacheKey] = r
		}
	}
}

// dedupRecords drops duplicate cache keys, keeping first occurrence, in
// input order.
func dedupRecords(recs []*record) []*record {
	seen := map[string]bool{}
	out := recs[:0]
	for _, r := range recs {
		if r == nil || seen[r.eval.CacheKey] {
			continue
		}
		seen[r.eval.CacheKey] = true
		out = append(out, r)
	}
	return out
}

// frontOf extracts the non-dominated points of the archive, sorted by
// objective vector (then cache key) for a deterministic rendering.
func frontOf(archive map[string]*record) []Point {
	recs := make([]*record, 0, len(archive))
	for _, r := range archive {
		recs = append(recs, r)
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].eval.CacheKey < recs[b].eval.CacheKey })
	vecs := make([][3]float64, len(recs))
	for i, r := range recs {
		vecs[i] = r.eval.Objectives.vector()
	}
	idx := paretoFilter(vecs)
	pts := make([]Point, 0, len(idx))
	for _, i := range idx {
		r := recs[i]
		pts = append(pts, Point{
			Config:     r.cand.Config,
			CacheKey:   r.eval.CacheKey,
			Request:    r.eval.Request,
			Objectives: r.eval.Objectives,
			Generation: r.gen,
		})
	}
	sort.Slice(pts, func(a, b int) bool {
		av, bv := pts[a].Objectives.vector(), pts[b].Objectives.vector()
		for m := range av {
			if av[m] != bv[m] {
				return av[m] < bv[m]
			}
		}
		return pts[a].CacheKey < pts[b].CacheKey
	})
	return pts
}

func (d *Driver) report(gen int, archive map[string]*record, st *Stats) {
	if d.Progress == nil {
		return
	}
	d.Progress(Update{
		Generation:  gen,
		Generations: d.Spec.Generations,
		Evaluations: st.Evaluations,
		CacheHits:   st.CacheHits,
		FrontSize:   len(frontOf(archive)),
	})
}

func (d *Driver) finish(archive map[string]*record, st *Stats) *Result {
	return &Result{
		Algorithm: d.Spec.Algorithm,
		Seed:      d.Spec.Seed,
		Front:     frontOf(archive),
		Stats:     *st,
	}
}
