package topology

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Planner implements the offline program of Section 4.4: given a topology, its
// bypass ring, and a candidate set of powered-on routers, it evaluates the
// best achievable average node-to-node distance (hops) and average per-hop
// latency (cycles) using Floyd-Warshall all-pairs shortest paths
// (Figure 6), and searches for the performance-centric router set.
//
// Edge admissibility mirrors NoRD connectivity: a link u->v is usable iff
//   - v is powered on (flit enters v's normal pipeline), or
//   - v is powered off and u is v's ring predecessor (flit enters v's
//     Bypass Inport and is forwarded through v's NI).
//
// Additionally a powered-off u can only emit flits on its Bypass Outport.
// Traversing a powered-on router costs pipeOnCycles per hop; bypassing a
// powered-off router costs pipeBypassCycles (2-cycle bypass + 1 LT versus
// the 4-stage pipeline + 1 LT, Section 6.8).
type Planner struct {
	Topo Topology
	Ring *Ring
}

// Per-hop latencies the planner charges (Section 6.8).
const (
	// pipeOnCycles is the per-hop latency through a powered-on router:
	// 4 pipeline stages + link traversal.
	pipeOnCycles = 5
	// pipeBypassCycles is the per-hop latency through a gated-off
	// router's NI bypass: 2 bypass stages + link traversal.
	pipeBypassCycles = 3
)

// NewPlanner returns a planner over t and its bypass ring r.
func NewPlanner(t Topology, r *Ring) *Planner {
	return &Planner{Topo: t, Ring: r}
}

// planInf marks an unreachable pair. It is finite, and twice it still fits
// the packed cell, so the relaxation needs no "is this side reachable" test:
// a sum with an unreachable side is at least planInf and never beats a cell.
const planInf = 1 << 29

// hopsMask selects the hop count of a packed cell: cycles<<32 | hops.
const hopsMask = 1<<32 - 1

// pathTotals is what one evaluation yields: hops and cycles summed over
// all ordered node pairs along the min-cycle paths. Candidate on-sets are
// ranked by it (fewest hops, then fewest cycles), which orders them
// exactly as the AvgHops / PerHopCycles quotients over the same pair count
// do.
type pathTotals struct{ hops, cycles int64 }

// worstTotals loses to every real evaluation.
var worstTotals = pathTotals{math.MaxInt64, math.MaxInt64}

func (t pathTotals) better(o pathTotals) bool {
	return t.hops < o.hops || (t.hops == o.hops && t.cycles < o.cycles)
}

func (t pathTotals) averages(n int) (avgHops, perHopCycles float64) {
	return float64(t.hops) / float64(n*(n-1)), float64(t.cycles) / float64(t.hops)
}

// evaluator runs Floyd-Warshall for one candidate on-set over scratch it
// owns, so a search of thousands of candidates allocates once. The
// neighbour table is immutable and shared between the evaluators of one
// search; everything else is per evaluator, one per worker.
type evaluator struct {
	n    int
	nbr  []int32 // 4 per node in Dir order, -1 where the port is unwired
	ring *Ring

	on    []bool  // the candidate set; callers fill it before run
	cell  []int64 // n*n packed cells: min cycles u->v, and hops along that path
	evals int     // runs so far
}

// newEvaluator returns an evaluator over the planner's graph.
func (p *Planner) newEvaluator() (*evaluator, error) {
	n := p.Topo.N()
	// The longest shortest path has fewer than n hops and must stay
	// below planInf.
	if n >= planInf/pipeOnCycles {
		return nil, fmt.Errorf("topology: %d nodes are too many for the planner", n)
	}
	nbr := make([]int32, 4*n)
	for u := 0; u < n; u++ {
		for d := East; d < Local; d++ {
			nbr[4*u+int(d)] = -1
			if v, ok := p.Topo.Neighbor(u, d); ok {
				nbr[4*u+int(d)] = int32(v)
			}
		}
	}
	return &evaluator{
		n: n, nbr: nbr, ring: p.Ring,
		on: make([]bool, n), cell: make([]int64, n*n),
	}, nil
}

// clone returns an evaluator over the same graph with scratch of its own,
// for another worker.
func (e *evaluator) clone() *evaluator {
	c := *e
	c.on, c.cell, c.evals = make([]bool, e.n), make([]int64, e.n*e.n), 0
	return &c
}

// run evaluates e.on. It fails only if some pair is unreachable, which
// cannot happen for a valid ring (the ring connects everything).
func (e *evaluator) run() (pathTotals, error) {
	e.evals++
	n, cell, on := e.n, e.cell, e.on
	for i := range cell {
		cell[i] = planInf << 32
	}
	for u := 0; u < n; u++ {
		cell[u*n+u] = 0
	}
	edge := func(u, v int) {
		c := int64(pipeOnCycles)
		if !on[v] {
			if e.ring.pred[v] != u {
				return // off router accepts flits only on its Bypass Inport
			}
			c = pipeBypassCycles
		}
		if c < cell[u*n+v]>>32 {
			cell[u*n+v] = c<<32 | 1
		}
	}
	for u := 0; u < n; u++ {
		if on[u] {
			for _, v := range e.nbr[4*u : 4*u+4] {
				if v >= 0 {
					edge(u, int(v))
				}
			}
		} else {
			// A gated-off router can only emit on its Bypass Outport.
			edge(u, e.ring.succ[u])
		}
	}
	// The k/u/v order and the strict < are load-bearing: among equal-cost
	// paths the hop count kept is whichever this visiting order leaves
	// behind, and the planner's sets depend on it. Adding two packed
	// cells adds cycles and hops at once; comparing against the target
	// with its hops cleared is the strict comparison on cycles alone.
	for k := 0; k < n; k++ {
		rk := cell[k*n : k*n+n]
		for u := 0; u < n; u++ {
			ru := cell[u*n : u*n+n]
			uk := ru[k]
			if uk >= planInf<<32 {
				continue
			}
			for v, kv := range rk {
				if s := uk + kv; s < ru[v]&^hopsMask {
					ru[v] = s
				}
			}
		}
	}
	var t pathTotals
	for u := 0; u < n; u++ {
		for v, c := range cell[u*n : u*n+n] {
			if c >= planInf<<32 {
				return t, fmt.Errorf("topology: node %d unreachable from %d", v, u)
			}
			t.cycles += c >> 32
			t.hops += c & hopsMask
		}
	}
	return t, nil
}

// Eval computes the average node-to-node distance in hops and the average
// per-hop latency in cycles over all ordered node pairs, given the set of
// powered-on routers. It returns an error only if some pair is unreachable,
// which cannot happen for a valid ring (the ring connects everything).
func (p *Planner) Eval(on []bool) (avgHops, perHopCycles float64, err error) {
	n := p.Topo.N()
	if len(on) != n {
		return 0, 0, fmt.Errorf("topology: on-set has %d entries, topology has %d nodes", len(on), n)
	}
	e, err := p.newEvaluator()
	if err != nil {
		return 0, 0, err
	}
	copy(e.on, on)
	t, err := e.run()
	if err != nil {
		return 0, 0, err
	}
	avgHops, perHopCycles = t.averages(n)
	return avgHops, perHopCycles, nil
}

// TradeoffPoint is one point of the Figure 6 curve: with K routers
// powered on, the best achievable average distance and the per-hop latency
// of that configuration.
type TradeoffPoint struct {
	K            int
	OnSet        []int
	AvgHops      float64
	PerHopCycles float64
}

// exhaustiveMaxNodes bounds the networks searched exhaustively (as the
// paper's offline program can); larger ones use greedy forward-selection.
const exhaustiveMaxNodes = 16

// Tradeoff computes the Figure 6 curve for K = 0..N powered-on routers.
// For networks up to 16 nodes the best on-set per K is found exhaustively;
// for larger networks a greedy forward-selection is used. The returned
// points are ordered by K.
func (p *Planner) Tradeoff() ([]TradeoffPoint, error) {
	n := p.Topo.N()
	points := make([]TradeoffPoint, 0, n+1)
	if n <= exhaustiveMaxNodes {
		e, err := p.newEvaluator()
		if err != nil {
			return nil, err
		}
		for k := 0; k <= n; k++ {
			set, t, err := e.bestOfSize(k)
			if err != nil {
				return nil, err
			}
			points = append(points, newTradeoffPoint(set, t, n))
		}
		return points, nil
	}
	order, totals, err := p.greedy(n)
	if err != nil {
		return nil, err
	}
	for k, t := range totals {
		set := append([]int(nil), order[:k]...)
		sort.Ints(set)
		points = append(points, newTradeoffPoint(set, t, n))
	}
	return points, nil
}

func newTradeoffPoint(set []int, t pathTotals, n int) TradeoffPoint {
	pt := TradeoffPoint{K: len(set), OnSet: set}
	pt.AvgHops, pt.PerHopCycles = t.averages(n)
	return pt
}

// bestOfSize evaluates every on-set of exactly k routers, as bitmasks in
// ascending order, and returns the first that no later one strictly beats.
func (e *evaluator) bestOfSize(k int) ([]int, pathTotals, error) {
	best, bestMask := worstTotals, uint(0)
	for mask := uint(1)<<k - 1; mask < 1<<e.n; mask = nextSamePopcount(mask) {
		for v := range e.on {
			e.on[v] = mask&(1<<v) != 0
		}
		t, err := e.run()
		if err != nil {
			return nil, t, err
		}
		if t.better(best) {
			best, bestMask = t, mask
		}
		if mask == 0 {
			break // the empty set has no successor
		}
	}
	return maskToSet(bestMask), best, nil
}

// nextSamePopcount returns the next larger integer with as many set bits
// as x (Gosper's hack); x must be non-zero.
func nextSamePopcount(x uint) uint {
	c := x & -x
	r := x + c
	return ((r^x)>>2)/c | r
}

// greedy grows an on-set from empty by forward-selection, k times adding
// whichever router yields the best totals (the lowest id among equals). It
// returns the routers in the order chosen and the totals after 0..k of
// them. Each step's candidates are independent, so they are spread over
// GOMAXPROCS evaluators; the winner is then picked in id order, so the
// result does not depend on how many workers there were.
func (p *Planner) greedy(k int) (order []int, totals []pathTotals, err error) {
	n := p.Topo.N()
	first, err := p.newEvaluator()
	if err != nil {
		return nil, nil, err
	}
	evs := []*evaluator{first}
	for len(evs) < min(runtime.GOMAXPROCS(0), n) {
		evs = append(evs, first.clone())
	}
	on := make([]bool, n)
	type outcome struct {
		t   pathTotals
		err error
	}
	results := make([]outcome, n)
	var next atomic.Int64
	// work evaluates candidates until the step has none left unclaimed.
	work := func(e *evaluator) {
		for {
			v := int(next.Add(1)) - 1
			if v >= n {
				return
			}
			if on[v] {
				continue
			}
			copy(e.on, on)
			e.on[v] = true
			results[v].t, results[v].err = e.run()
		}
	}
	// The caller's goroutine is evaluator 0; the others wait for a step
	// to start and report when they have run out of candidates.
	start, done := make(chan struct{}), make(chan struct{})
	var workers sync.WaitGroup
	defer func() {
		close(start)
		workers.Wait()
	}()
	for _, e := range evs[1:] {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for range start {
				work(e)
				done <- struct{}{}
			}
		}()
	}

	base, err := evs[0].run() // evs[0].on is still all false
	if err != nil {
		return nil, nil, err
	}
	order, totals = make([]int, 0, k), append(make([]pathTotals, 0, k+1), base)
	for len(order) < k {
		next.Store(0)
		for range evs[1:] {
			start <- struct{}{}
		}
		work(evs[0])
		for range evs[1:] {
			<-done
		}
		best, bestV := worstTotals, -1
		for v, r := range results {
			if on[v] {
				continue
			}
			if r.err != nil {
				return nil, nil, r.err
			}
			if r.t.better(best) {
				best, bestV = r.t, v
			}
		}
		on[bestV] = true
		order, totals = append(order, bestV), append(totals, best)
	}
	return order, totals, nil
}

// GreedySet grows a performance-centric set of exactly k routers by
// greedy forward-selection (adding whichever router most reduces the
// average distance), without evaluating the full trade-off curve. For
// networks beyond the exhaustive planner's reach this is the practical way
// to pick the Section 4.4 class.
func (p *Planner) GreedySet(k int) ([]int, error) {
	if n := p.Topo.N(); k < 0 || k > n {
		return nil, fmt.Errorf("topology: greedy set size %d out of range [0,%d]", k, n)
	}
	set, _, err := p.greedy(k)
	if err != nil {
		return nil, err
	}
	sort.Ints(set)
	return set, nil
}

// PerformanceCentric selects the K-router performance-centric class for
// asymmetric wakeup thresholds (Section 4.4): the exhaustive optimum of
// that size for networks up to 16 nodes, the greedy set beyond. For the
// paper's 4x4 example K=6 is the knee of the Figure 6 curve.
func (p *Planner) PerformanceCentric(k int) ([]int, error) {
	n := p.Topo.N()
	if k < 0 || k > n {
		return nil, fmt.Errorf("topology: performance-centric set size %d out of range [0,%d]", k, n)
	}
	if n > exhaustiveMaxNodes {
		return p.GreedySet(k)
	}
	e, err := p.newEvaluator()
	if err != nil {
		return nil, err
	}
	set, _, err := e.bestOfSize(k)
	return set, err
}

func maskToSet(mask uint) []int {
	var out []int
	for v := 0; mask != 0; v, mask = v+1, mask>>1 {
		if mask&1 != 0 {
			out = append(out, v)
		}
	}
	return out
}
