package sim

import (
	"context"
	"math"
	"strings"
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

func TestFig1a(t *testing.T) {
	pts, err := Fig1aStaticShare()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 9 {
		t.Fatalf("want 9 tech points, got %d", len(pts))
	}
	anchor := map[[2]int]float64{
		{65, 12}: 0.179,
		{45, 11}: 0.354,
		{32, 10}: 0.477,
	}
	for _, p := range pts {
		key := [2]int{p.NodeNM, int(p.Voltage*10 + 0.5)}
		if want, ok := anchor[key]; ok && math.Abs(p.StaticShare-want) > 0.005 {
			t.Errorf("%dnm/%.1fV share %.3f, want %.3f", p.NodeNM, p.Voltage, p.StaticShare, want)
		}
	}
}

func TestFig1b(t *testing.T) {
	keys, vals, err := Fig1bBreakdown()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 || len(vals) != 6 {
		t.Fatal("expected 6 components")
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	if math.Abs(sum-1.0) > 1e-9 {
		t.Errorf("fractions sum to %f", sum)
	}
	if keys[0] != "dynamic" || math.Abs(vals[0]-0.62) > 0.02 {
		t.Errorf("dynamic fraction %f, want ~0.62", vals[0])
	}
}

func TestFig6(t *testing.T) {
	pts, set, err := Fig6Tradeoff()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 17 || len(set) != 6 {
		t.Fatalf("got %d points, %d-router set", len(pts), len(set))
	}
	if pts[0].AvgHops <= pts[16].AvgHops {
		t.Error("distance should fall as routers power on")
	}
	if pts[0].PerHopCycles >= pts[16].PerHopCycles {
		t.Error("per-hop latency should rise as routers power on")
	}
}

// The pure bypass ring saturates at a small fraction of full-network
// throughput (Figure 7 reports ~14%).
func TestFig7RingSaturation(t *testing.T) {
	pts, err := Fig7WakeupThreshold([]float64{0.01, 0.08}, 20_000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatal("want 2 points")
	}
	if pts[1].AvgLatency < 2*pts[0].AvgLatency {
		t.Errorf("ring not saturating: %.1f -> %.1f", pts[0].AvgLatency, pts[1].AvgLatency)
	}
	if pts[1].VCReqWindow <= pts[0].VCReqWindow {
		t.Error("VC-request metric should grow with load")
	}
	if pts[1].Throughput > 0.07 {
		t.Errorf("ring throughput %.3f should cap well below offered 0.08", pts[1].Throughput)
	}
}

// NoRD's latency is insensitive to the wakeup latency; Conv_PG's grows
// (Figure 13's shape).
func TestFig13Shape(t *testing.T) {
	pts, err := Fig13WakeupLatency([]int{9, 18}, 0.05, 25_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	get := func(d noc.Design, wl int) float64 {
		for _, p := range pts {
			if p.Design == d && p.WakeupLatency == wl {
				return p.AvgLatency
			}
		}
		t.Fatalf("missing point %v/%d", d, wl)
		return 0
	}
	convGrowth := get(noc.ConvPG, 18) - get(noc.ConvPG, 9)
	nordGrowth := get(noc.NoRD, 18) - get(noc.NoRD, 9)
	if convGrowth <= 0 {
		t.Errorf("Conv_PG latency should grow with wakeup latency (delta %.1f)", convGrowth)
	}
	if nordGrowth > convGrowth/2 {
		t.Errorf("NoRD should hide wakeup latency: NoRD delta %.1f vs Conv_PG delta %.1f", nordGrowth, convGrowth)
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

func TestAreaTable(t *testing.T) {
	rows, err := AreaTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rows))
	}
	last := rows[3]
	if last.Design != noc.NoRD {
		t.Fatal("last row should be NoRD")
	}
	if math.Abs(last.VsOpt-0.031) > 0.004 {
		t.Errorf("NoRD area overhead vs Conv_PG_OPT = %.4f, want ~0.031", last.VsOpt)
	}
}

func TestFormatMatrix(t *testing.T) {
	rows := map[string]map[noc.Design]float64{
		"a": {noc.NoPG: 1, noc.ConvPG: 0.5, noc.ConvPGOpt: 0.6, noc.NoRD: 0.4},
	}
	avg := map[noc.Design]float64{noc.NoPG: 1, noc.ConvPG: 0.5, noc.ConvPGOpt: 0.6, noc.NoRD: 0.4}
	out := FormatMatrix("title", rows, []string{"a"}, avg)
	if !strings.Contains(out, "title") || !strings.Contains(out, "AVG") || !strings.Contains(out, "0.400") {
		t.Errorf("format output wrong:\n%s", out)
	}
	// Without explicit order or averages.
	out2 := FormatMatrix("t2", rows, nil, nil)
	if !strings.Contains(out2, "a") || strings.Contains(out2, "AVG") {
		t.Errorf("format without avg wrong:\n%s", out2)
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
