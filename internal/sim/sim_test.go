package sim

import (
	"context"
	"math"
	"sync"
	"testing"

	"nord/internal/noc"
	"nord/internal/power"
	"nord/internal/topology"
)

func TestPerfCentricSet4x4(t *testing.T) {
	set, err := PerfCentricSet(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 6 {
		t.Fatalf("set size %d, want 6 (the paper's 4x4 class size)", len(set))
	}
	// Cached second call returns the same slice contents.
	set2, err := PerfCentricSet(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range set {
		if set[i] != set2[i] {
			t.Error("cache returned a different set")
		}
	}
	if _, err := PerfCentricSet(1, 1); err == nil {
		t.Error("invalid mesh should fail")
	}
}

// TestPerfCentricSetSingleFlight: simulations that start together on a
// grid nobody has planned yet (serve workers, RunSuite's pool,
// search children) must share one planner search, not each run their own.
func TestPerfCentricSetSingleFlight(t *testing.T) {
	// A grid no other test in this package uses, made cold again for
	// every -count iteration.
	const w, h = 14, 2
	perfCache.Delete(perfKey{topology.KindMesh, w, h})
	before := perfSearches.Load()
	const callers = 8
	sets := make([][]int, callers)
	errs := make([]error, callers)
	var ready, done sync.WaitGroup
	release := make(chan struct{})
	for i := range sets {
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			ready.Done()
			<-release
			sets[i], errs[i] = PerfCentricSet(w, h)
		}()
	}
	ready.Wait()
	close(release)
	done.Wait()
	if n := perfSearches.Load() - before; n != 1 {
		t.Errorf("%d callers on a cold key ran %d planner searches, want 1", callers, n)
	}
	for i := range sets {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(sets[i]) != 3*w*h/8 || &sets[i][0] != &sets[0][0] {
			t.Errorf("caller %d got %v, not the shared slice %v", i, sets[i], sets[0])
		}
	}

	// A failed search is not memoised and leaves no entry behind.
	for i := 0; i < 2; i++ {
		if _, err := PerfCentricSet(3, 3); err == nil {
			t.Fatal("3x3 mesh has no bypass ring; planning it should fail")
		}
	}
	if _, left := perfCache.Load(perfKey{topology.KindMesh, 3, 3}); left {
		t.Error("failed search left a memo entry")
	}
}

// TestPlanTableHitRunsNoSearch: a grid in the plan table costs a lookup —
// no planner search, no memo entry, no allocation — however cold the
// process; a grid outside it still searches, once, and a concentrated
// mesh shares the mesh's entry because it has the mesh's router graph.
func TestPlanTableHitRunsNoSearch(t *testing.T) {
	perfCache.Clear()
	before := perfSearches.Load()
	for _, g := range []struct {
		kind topology.Kind
		side int
	}{{topology.KindMesh, 8}, {topology.KindTorus, 8}, {topology.KindCMesh, 4}, {topology.KindTorus, 15}, {topology.KindMesh, 16}} {
		var set []int
		var err error
		allocs := testing.AllocsPerRun(10, func() { set, err = PerfCentricSetOn(g.kind, g.side, g.side) })
		if err != nil {
			t.Fatal(err)
		}
		if want := 3 * g.side * g.side / 8; len(set) != want {
			t.Errorf("%v %dx%d: %d routers, want %d", g.kind, g.side, g.side, len(set), want)
		}
		if allocs != 0 {
			t.Errorf("%v %dx%d: a table hit allocates %.0f times", g.kind, g.side, g.side, allocs)
		}
	}
	if n := perfSearches.Load() - before; n != 0 {
		t.Errorf("%d planner searches ran for grids in the plan table", n)
	}
	perfCache.Range(func(k, _ any) bool {
		t.Errorf("table hit left memo entry %+v", k)
		return true
	})

	const w, h = 14, 2
	mesh, err := PerfCentricSetOn(topology.KindMesh, w, h)
	if err != nil {
		t.Fatal(err)
	}
	cmesh, err := PerfCentricSetOn(topology.KindCMesh, w, h)
	if err != nil {
		t.Fatal(err)
	}
	if n := perfSearches.Load() - before; n != 1 {
		t.Errorf("mesh then cmesh %dx%d ran %d planner searches, want 1", w, h, n)
	}
	if &mesh[0] != &cmesh[0] {
		t.Errorf("cmesh %dx%d got %v, not the mesh's shared slice %v", w, h, cmesh, mesh)
	}
}

func TestRunSyntheticBasics(t *testing.T) {
	r, err := runSynthetic(SynthConfig{Design: noc.NoPG, Rate: 0.05, Warmup: 2000, Measure: 8000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Design != noc.NoPG || r.Nodes != 16 || r.Cycles != 8000 {
		t.Errorf("result metadata wrong: %+v", r)
	}
	if r.AvgPacketLatency < 15 || r.AvgPacketLatency > 40 {
		t.Errorf("No_PG latency %f out of zero-load band", r.AvgPacketLatency)
	}
	if math.Abs(r.Throughput-0.05) > 0.01 {
		t.Errorf("throughput %f, want ~0.05 (delivered == offered below saturation)", r.Throughput)
	}
	if r.Energy.Total() <= 0 || r.AvgPowerW <= 0 {
		t.Error("energy accounting empty")
	}
	if r.Wakeups != 0 || r.OffFraction != 0 {
		t.Error("No_PG must not gate")
	}
}

func TestRunSyntheticValidation(t *testing.T) {
	if _, err := runSynthetic(SynthConfig{Design: noc.NoPG, Pattern: "bogus", Rate: 0.01, Measure: 10}); err == nil {
		t.Error("bad pattern should fail")
	}
	if _, err := runSynthetic(SynthConfig{Design: noc.NoPG, Rate: 0.01, Measure: 10, Tech: power.Tech{NodeNM: 7, Voltage: 1, FreqGHz: 1}}); err == nil {
		t.Error("bad tech should fail")
	}
}

// The paper's latency ordering at low load: No_PG < NoRD < Conv_PG_OPT <
// Conv_PG (Figure 11's shape).
func TestLatencyOrdering(t *testing.T) {
	lat := map[noc.Design]float64{}
	for _, d := range noc.Designs() {
		r, err := runSynthetic(SynthConfig{Design: d, Rate: 0.05, Warmup: 4000, Measure: 30_000, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		lat[d] = r.AvgPacketLatency
	}
	if !(lat[noc.NoPG] < lat[noc.NoRD] && lat[noc.NoRD] < lat[noc.ConvPGOpt] && lat[noc.ConvPGOpt] < lat[noc.ConvPG]) {
		t.Errorf("latency ordering broken: %v", lat)
	}
}

// NoRD cuts wakeups dramatically versus both conventional designs
// (Figure 9b's shape).
func TestWakeupReduction(t *testing.T) {
	wk := map[noc.Design]uint64{}
	for _, d := range []noc.Design{noc.ConvPG, noc.ConvPGOpt, noc.NoRD} {
		r, err := runSynthetic(SynthConfig{Design: d, Rate: 0.05, Warmup: 4000, Measure: 30_000, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		wk[d] = r.Wakeups
	}
	if wk[noc.NoRD]*2 > wk[noc.ConvPG] {
		t.Errorf("NoRD wakeups %d not well below Conv_PG %d", wk[noc.NoRD], wk[noc.ConvPG])
	}
	if wk[noc.NoRD]*2 > wk[noc.ConvPGOpt] {
		t.Errorf("NoRD wakeups %d not well below Conv_PG_OPT %d", wk[noc.NoRD], wk[noc.ConvPGOpt])
	}
}

func TestRunWorkloadBasics(t *testing.T) {
	r, err := runWorkload(WorkloadConfig{Design: noc.NoRD, Benchmark: "swaptions", Scale: 0.03, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if r.ExecTime == 0 || r.Label != "swaptions" {
		t.Errorf("workload result incomplete: %+v", r)
	}
	if r.L1HitRate <= 0 {
		t.Error("hit rate missing")
	}
	if _, err := runWorkload(WorkloadConfig{Design: noc.NoRD, Benchmark: "nope"}); err == nil {
		t.Error("unknown benchmark should fail")
	}
}

func TestLoadSweepSmall(t *testing.T) {
	pts, err := LoadSweep(context.Background(), SweepConfig{Rates: []float64{0.05, 0.30}, Measure: 12_000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("want 3 designs x 2 rates = 6 points, got %d", len(pts))
	}
	for _, p := range pts {
		if p.PowerW <= 0 {
			t.Errorf("%v@%.2f: power %f", p.Design, p.Rate, p.PowerW)
		}
	}
	// Power increases with load for every design.
	byDesign := map[noc.Design][]SweepPoint{}
	for _, p := range pts {
		byDesign[p.Design] = append(byDesign[p.Design], p)
	}
	for d, ps := range byDesign {
		if ps[1].PowerW <= ps[0].PowerW {
			t.Errorf("%v: power did not grow with load (%.2f -> %.2f)", d, ps[0].PowerW, ps[1].PowerW)
		}
	}
	// Gated designs burn less power than No_PG at low load.
	var noPG, nord SweepPoint
	for _, p := range pts {
		if p.Rate == 0.05 {
			switch p.Design {
			case noc.NoPG:
				noPG = p
			case noc.NoRD:
				nord = p
			}
		}
	}
	if nord.PowerW >= noPG.PowerW {
		t.Errorf("NoRD power %.2f should undercut No_PG %.2f at low load", nord.PowerW, noPG.PowerW)
	}
}

func TestBenchmarksAndDesigns(t *testing.T) {
	if len(Benchmarks()) != 10 {
		t.Error("want 10 benchmarks")
	}
	if len(noc.Designs()) != 4 || len(SweepDesigns()) != 3 {
		t.Error("design sets wrong")
	}
}
