package topology

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

func newPlanner4x4(t *testing.T) *Planner {
	t.Helper()
	return newPlannerOn(t, KindMesh, 4, 4)
}

func TestEvalAllOn(t *testing.T) {
	p := newPlanner4x4(t)
	on := make([]bool, 16)
	for i := range on {
		on[i] = true
	}
	hops, perHop, err := p.Eval(on)
	if err != nil {
		t.Fatal(err)
	}
	// All routers on: shortest paths are Manhattan distances; average
	// pairwise distance on 4x4 mesh is 2.5 hops.
	if math.Abs(hops-8.0/3.0) > 1e-9 {
		t.Errorf("avg hops = %v, want 8/3", hops)
	}
	if math.Abs(perHop-5.0) > 1e-9 {
		t.Errorf("per-hop latency = %v, want 5 (all normal pipelines)", perHop)
	}
}

func TestEvalAllOff(t *testing.T) {
	p := newPlanner4x4(t)
	on := make([]bool, 16)
	hops, perHop, err := p.Eval(on)
	if err != nil {
		t.Fatal(err)
	}
	// All routers off: only the ring is usable. Average ordered-pair ring
	// distance on a 16-node ring is (1+2+...+15)/15 = 8.
	if math.Abs(hops-8.0) > 1e-9 {
		t.Errorf("avg hops = %v, want 8 (pure ring)", hops)
	}
	if math.Abs(perHop-3.0) > 1e-9 {
		t.Errorf("per-hop latency = %v, want 3 (all bypass)", perHop)
	}
}

func TestEvalSizeMismatch(t *testing.T) {
	p := newPlanner4x4(t)
	if _, _, err := p.Eval(make([]bool, 5)); err == nil {
		t.Error("size mismatch should fail")
	}
}

func TestEvalMonotonicTrend(t *testing.T) {
	// Turning on more routers never increases the optimal average
	// distance (Figure 6's left axis decreases monotonically).
	p := newPlanner4x4(t)
	pts, err := p.Tradeoff()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 17 {
		t.Fatalf("got %d tradeoff points, want 17", len(pts))
	}
	for k := 1; k < len(pts); k++ {
		if pts[k].AvgHops > pts[k-1].AvgHops+1e-9 {
			t.Errorf("avg hops increased from K=%d (%v) to K=%d (%v)",
				k-1, pts[k-1].AvgHops, k, pts[k].AvgHops)
		}
	}
	// Endpoints match the closed forms above.
	if math.Abs(pts[0].AvgHops-8.0) > 1e-9 || math.Abs(pts[16].AvgHops-8.0/3.0) > 1e-9 {
		t.Errorf("endpoint avg hops = %v / %v, want 8 / 8/3", pts[0].AvgHops, pts[16].AvgHops)
	}
	// Per-hop latency rises from 3 (pure bypass) to 5 (pure pipeline),
	// the Figure 6 right axis.
	if math.Abs(pts[0].PerHopCycles-3.0) > 1e-9 || math.Abs(pts[16].PerHopCycles-5.0) > 1e-9 {
		t.Errorf("endpoint per-hop = %v / %v, want 3 / 5", pts[0].PerHopCycles, pts[16].PerHopCycles)
	}
}

func TestPerformanceCentricSix(t *testing.T) {
	// With 6 routers on, average distance should be close to the all-on
	// 2.5 hops (the paper reports a large reduction at K=6).
	p := newPlanner4x4(t)
	set, err := p.PerformanceCentric(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 6 {
		t.Fatalf("set size %d, want 6", len(set))
	}
	on := make([]bool, 16)
	for _, v := range set {
		on[v] = true
	}
	hops, _, err := p.Eval(on)
	if err != nil {
		t.Fatal(err)
	}
	if hops > 4.0 {
		t.Errorf("best 6-router avg distance %v, expected < 4 hops", hops)
	}
}

func TestPerformanceCentricValidation(t *testing.T) {
	p := newPlanner4x4(t)
	if _, err := p.PerformanceCentric(-1); err == nil {
		t.Error("negative K should fail")
	}
	if _, err := p.PerformanceCentric(17); err == nil {
		t.Error("K > N should fail")
	}
}

func TestGreedyTradeoffLargeMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("greedy planner on 8x8 is slow in -short mode")
	}
	m := MustMesh(8, 8)
	r, err := NewRing(m)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlanner(m, r)
	pts, err := p.Tradeoff()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 65 {
		t.Fatalf("got %d points, want 65", len(pts))
	}
	for k := 1; k < len(pts); k++ {
		if pts[k].AvgHops > pts[k-1].AvgHops+1e-9 {
			t.Errorf("greedy avg hops increased at K=%d", k)
		}
	}
	if math.Abs(pts[64].AvgHops-16.0/3.0) > 1e-6 {
		t.Errorf("all-on 8x8 avg hops = %v, want 16/3", pts[64].AvgHops)
	}
}

func TestGreedySet(t *testing.T) {
	p := newPlanner4x4(t)
	set, err := p.GreedySet(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 6 {
		t.Fatalf("set size %d", len(set))
	}
	seen := map[int]bool{}
	for _, v := range set {
		if seen[v] || v < 0 || v > 15 {
			t.Fatalf("bad set %v", set)
		}
		seen[v] = true
	}
	// Greedy should get close to the exhaustive optimum on 4x4.
	on := make([]bool, 16)
	for _, v := range set {
		on[v] = true
	}
	gh, _, err := p.Eval(on)
	if err != nil {
		t.Fatal(err)
	}
	best, err := p.PerformanceCentric(6)
	if err != nil {
		t.Fatal(err)
	}
	on2 := make([]bool, 16)
	for _, v := range best {
		on2[v] = true
	}
	bh, _, err := p.Eval(on2)
	if err != nil {
		t.Fatal(err)
	}
	if gh > bh*1.15 {
		t.Errorf("greedy distance %.3f too far from optimal %.3f", gh, bh)
	}
	if _, err := p.GreedySet(-1); err == nil {
		t.Error("negative K should fail")
	}
	if _, err := p.GreedySet(99); err == nil {
		t.Error("oversized K should fail")
	}
}

func newPlannerOn(t testing.TB, kind Kind, w, h int) *Planner {
	t.Helper()
	topo, err := New(kind, w, h)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(topo)
	if err != nil {
		t.Fatal(err)
	}
	return NewPlanner(topo, r)
}

// performanceCentricFor picks the set the simulator uses for a grid: 3N/8
// routers, the paper's 6-of-16 ratio.
func performanceCentricFor(p *Planner) ([]int, error) {
	return p.PerformanceCentric(3 * p.Topo.N() / 8)
}

// TestPerformanceCentricPinnedSets pins the planner's output per topology.
// Every simulation result downstream of a NoRD run depends on these sets,
// so a planner change that moves one must be deliberate. For the square
// grids the pin is the committed plan table (plans_gen.go, whose diff
// shows any move); the concentrated-mesh cases check what lets the table
// alias them: planning the CMesh topology itself gives the mesh's entry.
func TestPerformanceCentricPinnedSets(t *testing.T) {
	cases := []struct {
		kind Kind
		w, h int
		slow bool
		want []int // nil: the plan table's entry
	}{
		{KindMesh, 4, 4, false, nil},
		{KindMesh, 8, 8, false, nil},
		{KindMesh, 10, 10, true, nil},
		{KindMesh, 8, 4, false, []int{0, 1, 2, 8, 9, 10, 11, 17, 18, 19, 25, 26}},
		{KindMesh, 6, 6, false, nil},
		{KindMesh, 2, 2, false, nil},
		{KindTorus, 4, 4, false, nil},
		{KindTorus, 5, 5, false, nil},
		{KindTorus, 8, 8, false, nil},
		{KindCMesh, 4, 4, false, nil},
		{KindCMesh, 8, 8, false, nil},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%v%dx%d", c.kind, c.w, c.h), func(t *testing.T) {
			if c.slow && testing.Short() {
				t.Skip("10x10 greedy search is slow in -short mode")
			}
			want := c.want
			if want == nil {
				var ok bool
				if want, ok = StandardPlan(c.kind, c.w, c.h); !ok {
					t.Fatal("not in the plan table")
				}
			}
			got, err := DefaultPlan(c.kind, c.w, c.h)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("performance-centric set\n got %v\nwant %v", got, want)
			}
		})
	}
}

// textbookTotals is Figure 6's Floyd-Warshall written the plain way — row
// slices, an infinity that has to be tested for, separate cost and hop
// matrices — as the reference the planner's packed evaluator must agree
// with exactly. Hop counts along equal-cost paths depend on the k/u/v
// visiting order and the strict <, which is what the comparison pins.
func textbookTotals(p *Planner, on []bool) (hops, cycles int64, err error) {
	const inf = math.MaxInt32
	n := p.Topo.N()
	cost, hop := make([][]int32, n), make([][]int32, n)
	for u := range cost {
		cost[u], hop[u] = make([]int32, n), make([]int32, n)
		for v := range cost[u] {
			if u != v {
				cost[u][v] = inf
			}
		}
	}
	edge := func(u, v int) {
		c := int32(pipeOnCycles)
		if !on[v] {
			if p.Ring.Pred(v) != u {
				return
			}
			c = pipeBypassCycles
		}
		if c < cost[u][v] {
			cost[u][v], hop[u][v] = c, 1
		}
	}
	for u := 0; u < n; u++ {
		if !on[u] {
			edge(u, p.Ring.Succ(u))
			continue
		}
		for d := East; d < Local; d++ {
			if v, ok := p.Topo.Neighbor(u, d); ok {
				edge(u, v)
			}
		}
	}
	for k := 0; k < n; k++ {
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if cost[u][k] == inf || cost[k][v] == inf {
					continue
				}
				if nc := cost[u][k] + cost[k][v]; nc < cost[u][v] {
					cost[u][v], hop[u][v] = nc, hop[u][k]+hop[k][v]
				}
			}
		}
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if cost[u][v] == inf {
				return 0, 0, fmt.Errorf("node %d unreachable from %d", v, u)
			}
			hops, cycles = hops+int64(hop[u][v]), cycles+int64(cost[u][v])
		}
	}
	return hops, cycles, nil
}

func TestEvaluatorMatchesTextbookFloydWarshall(t *testing.T) {
	grids := []struct {
		kind Kind
		w, h int
	}{
		{KindMesh, 4, 4}, {KindMesh, 8, 4}, {KindMesh, 8, 8},
		{KindTorus, 4, 4}, {KindTorus, 5, 5}, {KindTorus, 8, 8},
		{KindCMesh, 4, 4},
	}
	for _, g := range grids {
		t.Run(fmt.Sprintf("%v%dx%d", g.kind, g.w, g.h), func(t *testing.T) {
			if g.w*g.h > 32 && testing.Short() {
				t.Skip("reference Floyd-Warshall on 64 nodes is slow in -short mode")
			}
			p := newPlannerOn(t, g.kind, g.w, g.h)
			n := p.Topo.N()
			e, err := p.newEvaluator()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(n)*31 + int64(g.kind)))
			for trial := 0; trial < 320; trial++ {
				// Trials 0 and 1 are all-off and all-on; the rest draw
				// each router with a per-trial density, so sparse and
				// dense sets are both covered.
				density := rng.Float64()
				for v := range e.on {
					switch trial {
					case 0:
						e.on[v] = false
					case 1:
						e.on[v] = true
					default:
						e.on[v] = rng.Float64() < density
					}
				}
				got, err := e.run()
				if err != nil {
					t.Fatal(err)
				}
				wantHops, wantCycles, err := textbookTotals(p, e.on)
				if err != nil {
					t.Fatal(err)
				}
				if got.hops != wantHops || got.cycles != wantCycles {
					t.Fatalf("trial %d on=%v: evaluator (hops %d, cycles %d), textbook (hops %d, cycles %d)",
						trial, e.on, got.hops, got.cycles, wantHops, wantCycles)
				}
			}
		})
	}
}

// TestExhaustiveVisitsChooseNK: the size-k search evaluates exactly the
// C(n,k) masks of that size, and finds what a scan of every mask finds.
func TestExhaustiveVisitsChooseNK(t *testing.T) {
	choose := func(n, k int) int {
		c := 1
		for i := 1; i <= k; i++ {
			c = c * (n - k + i) / i
		}
		return c
	}
	p := newPlanner4x4(t)
	for _, k := range []int{0, 1, 6, 15, 16} {
		e, err := p.newEvaluator()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.bestOfSize(k); err != nil {
			t.Fatal(err)
		}
		if want := choose(16, k); e.evals != want {
			t.Errorf("k=%d: %d evaluations, want C(16,%d) = %d", k, e.evals, k, want)
		}
	}

	// 4x2 mesh: all 256 masks in ascending order with the reference
	// evaluator, first strictly better per size wins.
	p = newPlannerOn(t, KindMesh, 4, 2)
	type best struct {
		mask         uint
		hops, cycles int64
	}
	bests := make([]best, 9)
	for k := range bests {
		bests[k].hops = math.MaxInt64
	}
	on := make([]bool, 8)
	for mask := uint(0); mask < 256; mask++ {
		for v := range on {
			on[v] = mask&(1<<v) != 0
		}
		h, c, err := textbookTotals(p, on)
		if err != nil {
			t.Fatal(err)
		}
		b := &bests[bits.OnesCount(mask)]
		if h < b.hops || (h == b.hops && c < b.cycles) {
			*b = best{mask, h, c}
		}
	}
	pts, err := p.Tradeoff()
	if err != nil {
		t.Fatal(err)
	}
	for k, b := range bests {
		if want := maskToSet(b.mask); !slices.Equal(pts[k].OnSet, want) {
			t.Errorf("K=%d: Tradeoff chose %v, full scan %v", k, pts[k].OnSet, want)
		}
		set, err := p.PerformanceCentric(k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(set, pts[k].OnSet) {
			t.Errorf("K=%d: PerformanceCentric %v, Tradeoff %v", k, set, pts[k].OnSet)
		}
	}
}

// TestPlannerIndependentOfGOMAXPROCS: the greedy step fans its candidates
// out over GOMAXPROCS workers; the router it picks must not depend on how
// many there are. Run under -race this also exercises the worker hand-off.
func TestPlannerIndependentOfGOMAXPROCS(t *testing.T) {
	grids := []struct {
		kind Kind
		w, h int
	}{{KindMesh, 4, 4}, {KindMesh, 6, 6}, {KindTorus, 6, 6}, {KindMesh, 8, 8}}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, g := range grids {
		if g.w*g.h > 36 && testing.Short() {
			continue
		}
		var ref [][]int
		var refCurve []TradeoffPoint
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			p := newPlannerOn(t, g.kind, g.w, g.h)
			n := p.Topo.N()
			greedy, err := p.GreedySet(3 * n / 8)
			if err != nil {
				t.Fatal(err)
			}
			perf, err := performanceCentricFor(p)
			if err != nil {
				t.Fatal(err)
			}
			curve, err := p.Tradeoff()
			if err != nil {
				t.Fatal(err)
			}
			got := [][]int{greedy, perf}
			if ref == nil {
				ref, refCurve = got, curve
				continue
			}
			if !reflect.DeepEqual(got, ref) || !reflect.DeepEqual(curve, refCurve) {
				t.Errorf("%v %dx%d: GOMAXPROCS=%d gives greedy/perf %v, GOMAXPROCS=1 gave %v (curves equal: %v)",
					g.kind, g.w, g.h, procs, got, ref, reflect.DeepEqual(curve, refCurve))
			}
		}
	}
}

// TestPlannerSearchAllocations: a search allocates its scratch once per
// worker, not per candidate evaluated.
func TestPlannerSearchAllocations(t *testing.T) {
	for _, g := range []struct {
		w, h  int
		evals int // candidates evaluated, for scale
	}{{4, 4, 8008}, {6, 6, 13*36 - 78}} {
		p := newPlannerOn(t, KindMesh, g.w, g.h)
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := performanceCentricFor(p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 40 {
			t.Errorf("%dx%d: %.0f allocations for a search of %d evaluations", g.w, g.h, allocs, g.evals)
		}
	}
}

// BenchmarkPlannerCold times what a process pays before its first NoRD
// simulation on a grid: one performance-centric search from a fresh
// planner. allocs/op must stay a handful per worker.
func BenchmarkPlannerCold(b *testing.B) {
	for _, g := range []struct {
		name string
		kind Kind
		w    int
	}{
		{"mesh4", KindMesh, 4}, {"mesh8", KindMesh, 8}, {"mesh10", KindMesh, 10},
		{"torus8", KindTorus, 8}, {"cmesh4", KindCMesh, 4},
	} {
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := performanceCentricFor(newPlannerOn(b, g.kind, g.w, g.w)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
