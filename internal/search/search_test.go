package search

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nord/internal/noc"
	"nord/internal/power"
	"nord/internal/sim"
)

// fakeEval returns a deterministic, concurrency-safe EvalFunc scoring
// each candidate as a pure function of its config — a stand-in for the
// serve layer's sim-job evaluator. The cache key is the candidate's
// canonical sim config, so aliased genomes collapse exactly as they
// would against the real content-addressed cache.
func fakeEval(calls *atomic.Int64) EvalFunc {
	return func(ctx context.Context, cand Candidate) (Evaluation, error) {
		if calls != nil {
			calls.Add(1)
		}
		key, _ := json.Marshal(cand.Sim)
		c := cand.Config
		// Synthetic but shaped like the real trade-off: more VCs/buffers
		// cost area and energy but cut latency; higher load costs latency.
		lat := 20 + 40*c.Rate + 30/float64(c.VCs) + 10/float64(c.BufferDepth)
		energy := 1 + 0.2*float64(c.VCs) + 0.05*float64(c.BufferDepth) +
			0.1*float64(c.GateIdle) + 0.02*float64(c.WakeThreshold)
		area := 0.1 * float64(c.VCs*c.BufferDepth)
		return Evaluation{
			CacheKey: string(key),
			Request:  json.RawMessage(`{"kind":"synthetic"}`),
			Objectives: Objectives{
				LatencyCycles:   math.Round(lat*1e6) / 1e6,
				EnergyPerFlitPJ: energy,
				AreaMM2:         area,
			},
		}, nil
	}
}

func testSpec() Spec {
	sp := Spec{
		Algorithm:   "nsga2",
		Seed:        7,
		Generations: 4,
		Population:  12,
		Measure:     16_000,
	}
	return sp.Filled()
}

func TestDominates(t *testing.T) {
	a := Objectives{LatencyCycles: 1, EnergyPerFlitPJ: 1, AreaMM2: 1}
	b := Objectives{LatencyCycles: 2, EnergyPerFlitPJ: 1, AreaMM2: 1}
	if !Dominates(a, b) || Dominates(b, a) {
		t.Fatal("strictly better in one objective must dominate")
	}
	if Dominates(a, a) {
		t.Fatal("a point must not dominate itself")
	}
	c := Objectives{LatencyCycles: 0.5, EnergyPerFlitPJ: 2, AreaMM2: 1}
	if Dominates(a, c) || Dominates(c, a) {
		t.Fatal("trade-off points must be mutually non-dominated")
	}
}

func TestNondominatedFronts(t *testing.T) {
	vecs := [][3]float64{
		{1, 1, 1}, // front 0
		{2, 2, 2}, // front 1 (dominated by 0)
		{1, 2, 0}, // front 0 (trades area against 0)
		{3, 3, 3}, // front 2
	}
	fronts := nondominatedFronts(vecs)
	if len(fronts) != 3 {
		t.Fatalf("got %d fronts, want 3: %v", len(fronts), fronts)
	}
	if len(fronts[0]) != 2 || len(fronts[1]) != 1 || len(fronts[2]) != 1 {
		t.Fatalf("front sizes wrong: %v", fronts)
	}
	if fronts[1][0] != 1 || fronts[2][0] != 3 {
		t.Fatalf("front membership wrong: %v", fronts)
	}
}

func TestCrowdingBoundariesAreInfinite(t *testing.T) {
	vecs := [][3]float64{
		{1, 5, 0}, {2, 4, 0}, {3, 3, 0}, {4, 2, 0}, {5, 1, 0},
	}
	front := []int{0, 1, 2, 3, 4}
	dist := crowdingDistances(front, vecs)
	if !math.IsInf(dist[0], 1) || !math.IsInf(dist[4], 1) {
		t.Fatalf("boundary points must get +Inf crowding: %v", dist)
	}
	for _, i := range []int{1, 2, 3} {
		if math.IsInf(dist[i], 1) || dist[i] <= 0 {
			t.Fatalf("interior point %d has crowding %v", i, dist[i])
		}
	}
}

// TestDecodeRepair pins what decode owns — the VC repair up to
// noc.MinVCs and a PointConfig that shows no inert gene — and that
// genomes differing only in repaired or inert genes come out as one
// Candidate.Sim. That last part is sim.SynthConfig.Filled's doing
// (TestAliasesRunIdentically proves its rules); serve's
// TestSearchChildSharesDirectKey pins the resulting cache key.
func TestDecodeRepair(t *testing.T) {
	sp := testSpec()
	var nord, nopg int
	for i, d := range sp.Space.Designs {
		switch d {
		case "NoRD":
			nord = i
		case "No_PG":
			nopg = i
		}
	}
	// Space.VCs is [2,3,4,6] after fill; index 0 is the 2-VC value.
	g := Genome{axisDesign: nord, axisVCs: 0, axisGateIdle: 1, axisWake: 2}
	cand, err := sp.decode(g)
	if err != nil {
		t.Fatal(err)
	}
	if cand.Config.VCs != 3 || cand.Sim.VCsPerClass != 3 {
		t.Fatalf("NoRD 2-VC genome not repaired to 3: %+v", cand.Config)
	}
	if cand.Config.WakeThreshold == 0 || cand.Sim.ThresholdPower != cand.Config.WakeThreshold {
		t.Fatalf("NoRD wake threshold not wired: %+v", cand.Config)
	}

	// Two NoRD genomes differing only in the repaired VC index alias to
	// one canonical config.
	g2 := g
	g2[axisVCs] = 1 // the explicit 3-VC value
	cand2, err := sp.decode(g2)
	if err != nil {
		t.Fatal(err)
	}
	if cand.Sim != cand2.Sim {
		t.Fatalf("aliased genomes decode differently:\n%+v\n%+v", cand.Sim, cand2.Sim)
	}

	// A 2-VC conventional design on the torus is repaired to the 3-VC
	// minimum its dateline escape pair requires, and the alias name
	// "concentrated" canonicalizes to "cmesh".
	spTopo := testSpec()
	spTopo.Space.Topologies = []string{"torus", "concentrated"}
	gt := Genome{axisDesign: nopg, axisTopology: 0, axisVCs: 0}
	ct, err := spTopo.decode(gt)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Config.Topology != "torus" || ct.Config.VCs != 3 || ct.Sim.VCsPerClass != 3 {
		t.Fatalf("torus 2-VC genome not repaired: %+v", ct.Config)
	}
	gc := Genome{axisDesign: nopg, axisTopology: 1, axisVCs: 0}
	cc, err := spTopo.decode(gc)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Config.Topology != "cmesh" || cc.Sim.Topology != "cmesh" {
		t.Fatalf("alias topology not canonicalized: %+v", cc.Config)
	}

	// No_PG never gates: its gate-idle and wake genes are inert, the
	// PointConfig hides them and the filled sim configs are equal.
	gp := Genome{axisDesign: nopg, axisVCs: 2, axisGateIdle: 0, axisWake: 0}
	gq := Genome{axisDesign: nopg, axisVCs: 2, axisGateIdle: 2, axisWake: 1}
	cp, _ := sp.decode(gp)
	cq, _ := sp.decode(gq)
	if cp.Config.GateIdle != 0 || cp.Config.WakeThreshold != 0 {
		t.Fatalf("No_PG carries gating knobs: %+v", cp.Config)
	}
	if cp.Sim != cq.Sim {
		t.Fatalf("No_PG gate-idle aliases decode differently:\n%+v\n%+v", cp.Sim, cq.Sim)
	}
}

// TestDriverDeterministic is the core contract: the same (seed, spec)
// reproduces the Pareto front byte for byte even though evaluations run
// concurrently and finish in timing-dependent order.
func TestDriverDeterministic(t *testing.T) {
	t.Run("nsga2", func(t *testing.T) {
		run := func() []byte {
			eval := fakeEval(nil)
			spec := testSpec()
			// Exercise the topology axis: reruns must reproduce the
			// front byte for byte across mixed-topology candidates too.
			spec.Space.Topologies = []string{"mesh", "torus", "cmesh"}
			d := &Driver{
				Spec:        spec,
				Concurrency: 8,
				Eval: func(ctx context.Context, cand Candidate) (Evaluation, error) {
					// Jitter completion order to shake out ordering bugs.
					time.Sleep(time.Duration(len(cand.Config.Design)) * 100 * time.Microsecond)
					return eval(ctx, cand)
				},
			}
			res, err := d.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Front) == 0 {
				t.Fatal("empty front")
			}
			b, err := json.Marshal(res.Front)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		a, b := run(), run()
		if !bytes.Equal(a, b) {
			t.Fatalf("front not reproducible:\n%s\n%s", a, b)
		}
	})
}

// TestDriverFrontIsNondominated checks the output invariant directly:
// no front point dominates another, and generations are recorded.
func TestDriverFrontIsNondominated(t *testing.T) {
	d := &Driver{Spec: testSpec(), Eval: fakeEval(nil)}
	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Front {
		if p.CacheKey == "" || len(p.Request) == 0 {
			t.Fatalf("front point %d missing provenance: %+v", i, p)
		}
		for k, q := range res.Front {
			if i != k && Dominates(p.Objectives, q.Objectives) {
				t.Fatalf("front point %d dominates %d", i, k)
			}
		}
	}
	if res.Stats.Generations != d.Spec.Generations {
		t.Fatalf("ran %d generations, want %d", res.Stats.Generations, d.Spec.Generations)
	}
	if res.Stats.Evaluations != d.Spec.Generations*d.Spec.Population {
		t.Fatalf("made %d evaluations, want %d", res.Stats.Evaluations, d.Spec.Generations*d.Spec.Population)
	}
}

// TestInfeasibleConstraintDominated: infeasible candidates never reach
// the front but are counted, and they rank below every feasible point in
// selection.
func TestInfeasibleConstraintDominated(t *testing.T) {
	base := fakeEval(nil)
	d := &Driver{
		Spec: testSpec(),
		Eval: func(ctx context.Context, cand Candidate) (Evaluation, error) {
			ev, err := base(ctx, cand)
			if cand.Config.Rate >= 0.30 {
				ev.Infeasible = true // pretend high load saturates
			}
			return ev, err
		},
	}
	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Infeasible == 0 {
		t.Skip("seed produced no high-rate candidates") // astronomically unlikely
	}
	for _, p := range res.Front {
		if p.Config.Rate >= 0.30 {
			t.Fatalf("infeasible candidate on the front: %+v", p.Config)
		}
	}
}

// TestDriverEvalErrorFailsSearch: a real evaluation error (not
// infeasibility) aborts the whole search.
func TestDriverEvalErrorFailsSearch(t *testing.T) {
	var n atomic.Int64
	d := &Driver{
		Spec: testSpec(),
		Eval: func(ctx context.Context, cand Candidate) (Evaluation, error) {
			if n.Add(1) == 5 {
				return Evaluation{}, fmt.Errorf("backend exploded")
			}
			return fakeEval(nil)(ctx, cand)
		},
	}
	if _, err := d.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "exploded") {
		t.Fatalf("eval error not surfaced: %v", err)
	}
}

// TestDriverCancel: canceling the context aborts in-flight evaluations
// and returns promptly with the cause.
func TestDriverCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	d := &Driver{
		Spec:        testSpec(),
		Concurrency: 2,
		Eval: func(ctx context.Context, cand Candidate) (Evaluation, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return Evaluation{}, ctx.Err()
		},
	}
	errc := make(chan error, 1)
	go func() {
		_, err := d.Run(ctx)
		errc <- err
	}()
	<-started
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("canceled search returned nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled search did not return")
	}
}

// TestExtract covers objective extraction from a sim result, including
// the infeasibility edges.
func TestExtract(t *testing.T) {
	sp := testSpec()
	var nordIdx int
	for i, d := range sp.Space.Designs {
		if d == "NoRD" {
			nordIdx = i
		}
	}
	cand, err := sp.decode(Genome{axisDesign: nordIdx, axisVCs: 2, axisDepth: 1, axisGateIdle: 1, axisWake: 1, axisRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Result{
		Design: noc.NoRD, Nodes: 16, Cycles: 20_000,
		AvgPacketLatency: 25.5, Throughput: 0.1, PacketsDelivered: 8000,
		Energy: power.Breakdown{RouterDynamic: 1e-6, RouterStatic: 2e-6},
	}
	obj, ok := Extract(cand.Sim, res)
	if !ok {
		t.Fatal("healthy run classified infeasible")
	}
	if obj.LatencyCycles != 25.5 {
		t.Fatalf("latency %v", obj.LatencyCycles)
	}
	flits := 0.1 * 16 * 20_000
	wantE := 3e-6 / flits * 1e12
	if math.Abs(obj.EnergyPerFlitPJ-wantE) > 1e-9 {
		t.Fatalf("energy/flit %v, want %v", obj.EnergyPerFlitPJ, wantE)
	}
	if obj.AreaMM2 <= 0 {
		t.Fatalf("area %v", obj.AreaMM2)
	}

	// The area objective must feel the VC/depth genes.
	big, _ := sp.decode(Genome{axisDesign: nordIdx, axisVCs: 3, axisDepth: 2, axisGateIdle: 1, axisWake: 1, axisRate: 1})
	bigObj, _ := Extract(big.Sim, res)
	if bigObj.AreaMM2 <= obj.AreaMM2 {
		t.Fatalf("bigger router (VCs %d depth %d) not larger: %v <= %v",
			big.Config.VCs, big.Config.BufferDepth, bigObj.AreaMM2, obj.AreaMM2)
	}

	for _, bad := range []sim.Result{
		{Err: "deadlock"},
		{Nodes: 16, Cycles: 100, AvgPacketLatency: 10, Throughput: 0.1},     // zero delivered
		{Nodes: 16, Cycles: 100, PacketsDelivered: 5, Throughput: 0.1},      // zero latency
		{Nodes: 16, Cycles: 100, AvgPacketLatency: 10, PacketsDelivered: 5}, // zero flits
	} {
		if _, ok := Extract(cand.Sim, bad); ok {
			t.Fatalf("result %+v classified feasible", bad)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	good := testSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("filled default spec invalid: %v", err)
	}
	for name, mut := range map[string]func(*Spec){
		"algorithm": func(sp *Spec) { sp.Algorithm = "annealing" },
		"gens":      func(sp *Spec) { sp.Generations = 65 },
		"pop":       func(sp *Spec) { sp.Population = 1 },
		"xrate":     func(sp *Spec) { sp.CrossoverRate = 1.5 },
		"measure":   func(sp *Spec) { sp.Measure = 10 },
		"pattern":   func(sp *Spec) { sp.Pattern = "zigzag" },
		"design":    func(sp *Spec) { sp.Space.Designs = []string{"NoRD", "NoRD"} },
		"topology":  func(sp *Spec) { sp.Space.Topologies = []string{"hypercube"} },
		"topo_dup":  func(sp *Spec) { sp.Space.Topologies = []string{"cmesh", "concentrated"} },
		"width":     func(sp *Spec) { sp.Space.Widths = []int{1} },
		"vcs":       func(sp *Spec) { sp.Space.VCs = []int{1} },
		"rate":      func(sp *Spec) { sp.Space.Rates = []float64{0} },
	} {
		sp := testSpec()
		mut(&sp)
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: bad spec accepted", name)
		}
	}
}

// TestSpaceCanonicalizes: unordered, duplicated axis values fill to the
// same canonical space (one cache key server-side).
func TestSpaceCanonicalizes(t *testing.T) {
	a := Space{VCs: []int{4, 2, 4, 3}, Rates: []float64{0.3, 0.1, 0.3}}
	b := Space{VCs: []int{2, 3, 4}, Rates: []float64{0.1, 0.3}}
	a.fill()
	b.fill()
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("equivalent spaces canonicalize differently:\n%s\n%s", aj, bj)
	}
}

func TestWriteFrontCSV(t *testing.T) {
	pts := []Point{{
		Config: PointConfig{
			Design: "NoRD", Topology: "mesh", Width: 4, VCs: 3,
			BufferDepth: 5, GateIdle: 2, WakeThreshold: 6, Rate: 0.15,
		},
		CacheKey:   "abc123",
		Objectives: Objectives{LatencyCycles: 25.25, EnergyPerFlitPJ: 1.5, AreaMM2: 2.75},
		Generation: 3,
	}}
	var buf bytes.Buffer
	if err := WriteFrontCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want header + 1 row:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "design,topology,width,vcs") {
		t.Fatalf("bad header: %s", lines[0])
	}
	if lines[1] != "NoRD,mesh,4,3,5,2,6,0.15,25.25,1.5,2.75,3,abc123" {
		t.Fatalf("bad row: %s", lines[1])
	}
}
