// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each bench regenerates its experiment and reports
// the figure's headline quantities as custom metrics (ReportMetric), so
// `go test -bench=. -benchmem` doubles as the reproduction run. The
// expensive PARSEC-like suite (Figures 8-12) is executed once and shared
// across its benchmarks.
package nord_test

import (
	"context"
	"sync"
	"testing"

	"nord"
	"nord/internal/noc"
	"nord/internal/sim"
	"nord/internal/traffic"
)

// benchScale keeps the full-system suite affordable inside a benchmark
// run; cmd/nordbench runs bigger instances.
const benchScale = 0.05

var (
	suiteOnce sync.Once
	suiteRes  *sim.SuiteResult
	suiteErr  error
)

func suite(b *testing.B) *sim.SuiteResult {
	b.Helper()
	suiteOnce.Do(func() {
		suiteRes, suiteErr = sim.RunSuite(context.Background(), benchScale, 1, nil)
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suiteRes
}

// BenchmarkFig01aStaticPowerShare reproduces Figure 1(a): the static
// share of router power across technology points. Reported metrics are
// the three anchor shares (percent).
func BenchmarkFig01aStaticPowerShare(b *testing.B) {
	var pts []sim.TechPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = sim.Fig1aStaticShare()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		switch {
		case p.NodeNM == 65 && p.Voltage == 1.2:
			b.ReportMetric(100*p.StaticShare, "%static@65nm/1.2V")
		case p.NodeNM == 45 && p.Voltage == 1.1:
			b.ReportMetric(100*p.StaticShare, "%static@45nm/1.1V")
		case p.NodeNM == 32 && p.Voltage == 1.0:
			b.ReportMetric(100*p.StaticShare, "%static@32nm/1.0V")
		}
	}
}

// BenchmarkFig01bPowerBreakdown reproduces Figure 1(b): the router power
// decomposition at 45nm/1.0V (paper: dynamic 62%, buffer 21%, ...).
func BenchmarkFig01bPowerBreakdown(b *testing.B) {
	var keys []string
	var vals []float64
	for i := 0; i < b.N; i++ {
		var err error
		keys, vals, err = sim.Fig1bBreakdown()
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, k := range keys {
		b.ReportMetric(100*vals[i], "%"+k)
	}
}

// BenchmarkFig03IdlePeriods reproduces the Section 3.2 / Figure 3
// analysis: the fraction of router idle periods at or below the 10-cycle
// breakeven time under No_PG (paper: >61% on average).
func BenchmarkFig03IdlePeriods(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		rows, err := sim.Fig3IdlePeriods(benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		avg = 0
		for _, r := range rows {
			avg += r.LEBETFrac
		}
		avg /= float64(len(rows))
	}
	b.ReportMetric(100*avg, "%idle-periods<=BET")
}

// BenchmarkFig06PlannerTradeoff reproduces Figure 6: the Floyd-Warshall
// trade-off between powered-on routers, node-to-node distance and
// per-hop latency on the 4x4 mesh.
func BenchmarkFig06PlannerTradeoff(b *testing.B) {
	var pts []nord.TradeoffPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, _, err = sim.Fig6Tradeoff()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].AvgHops, "hops@K=0")
	b.ReportMetric(pts[6].AvgHops, "hops@K=6")
	b.ReportMetric(pts[16].AvgHops, "hops@K=16")
	b.ReportMetric(pts[6].PerHopCycles, "cyc/hop@K=6")
}

// BenchmarkFig07WakeupThreshold reproduces Figure 7: latency on the pure
// bypass ring (all routers forced off) versus injection rate, with the
// windowed VC-request metric used to place the wakeup thresholds. The
// reported metric is the ring's saturation throughput as a fraction of
// the full network's (paper: ~14%).
func BenchmarkFig07WakeupThreshold(b *testing.B) {
	var ringCap float64
	for i := 0; i < b.N; i++ {
		pts, err := sim.Fig7WakeupThreshold([]float64{0.02, 0.06, 0.10}, 30_000, 1)
		if err != nil {
			b.Fatal(err)
		}
		ringCap = pts[len(pts)-1].Throughput
	}
	// The full 4x4 network saturates around 0.40 flits/node/cycle.
	b.ReportMetric(ringCap, "ring-throughput")
	b.ReportMetric(100*ringCap/0.40, "%of-full-network")
}

// BenchmarkFig08StaticEnergy reproduces Figure 8: router static energy
// normalised to No_PG (paper averages: Conv_PG 48.8%, Conv_PG_OPT 53.0%,
// NoRD 37.1%).
func BenchmarkFig08StaticEnergy(b *testing.B) {
	sr := suite(b)
	var avg map[noc.Design]float64
	for i := 0; i < b.N; i++ {
		_, avg = sr.Fig8StaticEnergy()
	}
	b.ReportMetric(100*avg[noc.ConvPG], "%Conv_PG")
	b.ReportMetric(100*avg[noc.ConvPGOpt], "%Conv_PG_OPT")
	b.ReportMetric(100*avg[noc.NoRD], "%NoRD")
}

// BenchmarkFig09Overhead reproduces Figure 9: power-gating overhead
// energy and wakeup counts normalised to Conv_PG (paper: NoRD cuts
// overhead 80.7% and wakeups 81.0%).
func BenchmarkFig09Overhead(b *testing.B) {
	sr := suite(b)
	var avgE, avgW map[noc.Design]float64
	for i := 0; i < b.N; i++ {
		_, avgE = sr.Fig9aOverheadEnergy()
		_, avgW = sr.Fig9bWakeups()
	}
	b.ReportMetric(100*avgE[noc.NoRD], "%overheadE-NoRD")
	b.ReportMetric(100*avgW[noc.NoRD], "%wakeups-NoRD")
	b.ReportMetric(100*avgW[noc.ConvPGOpt], "%wakeups-OPT")
}

// BenchmarkFig10EnergyBreakdown reproduces Figure 10: the total NoC
// energy of each design normalised to No_PG (paper: NoRD saves 9.1%,
// 9.4% and 20.6% versus No_PG, Conv_PG and Conv_PG_OPT... i.e. NoRD's
// total is the lowest).
func BenchmarkFig10EnergyBreakdown(b *testing.B) {
	sr := suite(b)
	var bd map[string]map[noc.Design]float64
	for i := 0; i < b.N; i++ {
		raw := sr.Fig10Breakdown()
		bd = map[string]map[noc.Design]float64{}
		for bench, m := range raw {
			bd[bench] = map[noc.Design]float64{}
			for d, e := range m {
				bd[bench][d] = e.Total()
			}
		}
	}
	for _, d := range noc.Designs() {
		sum := 0.0
		for _, bench := range sr.Benchmarks {
			sum += bd[bench][d]
		}
		b.ReportMetric(100*sum/float64(len(sr.Benchmarks)), "%total-"+d.String())
	}
}

// BenchmarkFig11PacketLatency reproduces Figure 11: average packet
// latency increase over No_PG (paper: Conv_PG +63.8%, Conv_PG_OPT +41.5%,
// NoRD +15.2%).
func BenchmarkFig11PacketLatency(b *testing.B) {
	sr := suite(b)
	var inc map[noc.Design]float64
	for i := 0; i < b.N; i++ {
		inc = sr.LatencyIncreaseAvg()
	}
	b.ReportMetric(100*inc[noc.ConvPG], "%+Conv_PG")
	b.ReportMetric(100*inc[noc.ConvPGOpt], "%+Conv_PG_OPT")
	b.ReportMetric(100*inc[noc.NoRD], "%+NoRD")
}

// BenchmarkFig12ExecutionTime reproduces Figure 12: execution time
// normalised to No_PG (paper: +11.7%, +8.1%, +3.9%).
func BenchmarkFig12ExecutionTime(b *testing.B) {
	sr := suite(b)
	var avg map[noc.Design]float64
	for i := 0; i < b.N; i++ {
		_, avg = sr.Fig12ExecTime()
	}
	b.ReportMetric(100*(avg[noc.ConvPG]-1), "%+Conv_PG")
	b.ReportMetric(100*(avg[noc.ConvPGOpt]-1), "%+Conv_PG_OPT")
	b.ReportMetric(100*(avg[noc.NoRD]-1), "%+NoRD")
}

// BenchmarkFig13WakeupLatency reproduces Figure 13: latency sensitivity
// to the wakeup latency (9 -> 18 cycles). NoRD stays flat while the
// conventional designs degrade.
func BenchmarkFig13WakeupLatency(b *testing.B) {
	var pts []sim.Fig13Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = sim.Fig13WakeupLatency([]int{9, 18}, 0.05, 30_000, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	get := func(d noc.Design, wl int) float64 {
		for _, p := range pts {
			if p.Design == d && p.WakeupLatency == wl {
				return p.AvgLatency
			}
		}
		return 0
	}
	b.ReportMetric(get(noc.ConvPG, 18)-get(noc.ConvPG, 9), "cyc-growth-Conv_PG")
	b.ReportMetric(get(noc.ConvPGOpt, 18)-get(noc.ConvPGOpt, 9), "cyc-growth-OPT")
	b.ReportMetric(get(noc.NoRD, 18)-get(noc.NoRD, 9), "cyc-growth-NoRD")
}

// BenchmarkFig14LoadSweep16 reproduces Figure 14: 16-node latency and
// power across the load range. The reported metrics summarise the
// low-load region (paper: NoRD beats Conv_PG_OPT on latency there) and
// the power saving versus No_PG.
func BenchmarkFig14LoadSweep16(b *testing.B) {
	var pts []sim.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = sim.LoadSweep(context.Background(), sim.SweepConfig{Rates: []float64{0.05, 0.10, 0.30}, Measure: 30_000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	get := func(d noc.Design, rate float64) sim.SweepPoint {
		for _, p := range pts {
			if p.Design == d && p.Rate == rate {
				return p
			}
		}
		return sim.SweepPoint{}
	}
	b.ReportMetric(get(noc.NoPG, 0.10).AvgLatency, "lat@0.10-No_PG")
	b.ReportMetric(get(noc.ConvPGOpt, 0.10).AvgLatency, "lat@0.10-OPT")
	b.ReportMetric(get(noc.NoRD, 0.10).AvgLatency, "lat@0.10-NoRD")
	b.ReportMetric(100*get(noc.NoRD, 0.05).PowerW/get(noc.NoPG, 0.05).PowerW, "%power@0.05-NoRD/No_PG")
}

// BenchmarkFig15LoadSweep64 reproduces Figure 15: the 64-node sweeps.
// The paper's point: NoRD's low-load latency advantage over Conv_PG_OPT
// grows with network size (cumulative wakeups scale with hop count).
func BenchmarkFig15LoadSweep64(b *testing.B) {
	var uni []sim.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		uni, err = sim.LoadSweep(context.Background(), sim.SweepConfig{Width: 8, Height: 8, Rates: []float64{0.05, 0.10}, Measure: 20_000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.LoadSweep(context.Background(), sim.SweepConfig{Width: 8, Height: 8, Pattern: "bitcomp", Rates: []float64{0.04}, Measure: 20_000, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	get := func(d noc.Design, rate float64) sim.SweepPoint {
		for _, p := range uni {
			if p.Design == d && p.Rate == rate {
				return p
			}
		}
		return sim.SweepPoint{}
	}
	b.ReportMetric(get(noc.NoPG, 0.10).AvgLatency, "lat@0.10-No_PG")
	b.ReportMetric(get(noc.ConvPGOpt, 0.10).AvgLatency, "lat@0.10-OPT")
	b.ReportMetric(get(noc.NoRD, 0.10).AvgLatency, "lat@0.10-NoRD")
}

// BenchmarkSec68AreaOverhead reproduces the Section 6.8 area comparison
// (paper: NoRD +3.1% versus Conv_PG_OPT).
func BenchmarkSec68AreaOverhead(b *testing.B) {
	var rows []sim.AreaRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sim.AreaTable()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*rows[3].VsOpt, "%area-NoRD-vs-OPT")
}

// --- Ablations (design choices DESIGN.md calls out) -------------------

// BenchmarkAblationThresholds compares NoRD with and without the
// asymmetric wakeup thresholds (Section 4.4 / 6.1).
func BenchmarkAblationThresholds(b *testing.B) {
	var asym, sym sim.Result
	for i := 0; i < b.N; i++ {
		var err error
		asym, err = nord.RunSynthetic(sim.SynthConfig{Design: noc.NoRD, Rate: 0.08, Measure: 30_000, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		sym, err = nord.RunSynthetic(sim.SynthConfig{Design: noc.NoRD, Rate: 0.08, Measure: 30_000, Seed: 2, NoPerfCentric: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(asym.AvgPacketLatency, "lat-asymmetric")
	b.ReportMetric(sym.AvgPacketLatency, "lat-symmetric")
	b.ReportMetric(float64(asym.Wakeups), "wakeups-asymmetric")
	b.ReportMetric(float64(sym.Wakeups), "wakeups-symmetric")
}

// BenchmarkAblationMisrouteCap sweeps the NoRD misroute cap: small caps
// force packets onto the escape ring sooner (long committed detours),
// large caps let them wander adaptively.
func BenchmarkAblationMisrouteCap(b *testing.B) {
	caps := []int{1, 2, 4, 8}
	lat := make([]float64, len(caps))
	for i := 0; i < b.N; i++ {
		for j, c := range caps {
			r, err := nord.RunSynthetic(sim.SynthConfig{Design: noc.NoRD, Rate: 0.05, Measure: 20_000, Seed: 2, MisrouteCap: c})
			if err != nil {
				b.Fatal(err)
			}
			lat[j] = r.AvgPacketLatency
		}
	}
	for j, c := range caps {
		b.ReportMetric(lat[j], "lat-cap"+string(rune('0'+c)))
	}
}

// BenchmarkSec68ShortPipelines reproduces the Section 6.8 discussion:
// with both sides optimised (2-stage pipeline baseline with 1-cycle
// early-wakeup hiding, NoRD with the aggressive 1-cycle bypass), NoRD
// remains competitive with the optimised conventional design.
func BenchmarkSec68ShortPipelines(b *testing.B) {
	var opt, nordRes sim.Result
	for i := 0; i < b.N; i++ {
		var err error
		opt, err = nord.RunSynthetic(sim.SynthConfig{
			Design: noc.ConvPGOpt, Rate: 0.05, Measure: 30_000, Seed: 3, TwoStageRouter: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		nordRes, err = nord.RunSynthetic(sim.SynthConfig{
			Design: noc.NoRD, Rate: 0.05, Measure: 30_000, Seed: 3,
			TwoStageRouter: true, AggressiveBypass: true,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(opt.AvgPacketLatency, "lat-2stage-OPT")
	b.ReportMetric(nordRes.AvgPacketLatency, "lat-2stage-NoRD-aggr")
}

// BenchmarkAblationDynamicClassify compares the fixed planner-chosen
// performance-centric class against the dynamic (demand-ranked)
// classification the paper sketches as future work (Section 4.4).
func BenchmarkAblationDynamicClassify(b *testing.B) {
	var fixed, dyn sim.Result
	for i := 0; i < b.N; i++ {
		var err error
		fixed, err = nord.RunSynthetic(sim.SynthConfig{Design: noc.NoRD, Rate: 0.08, Measure: 30_000, Seed: 4})
		if err != nil {
			b.Fatal(err)
		}
		dyn, err = nord.RunSynthetic(sim.SynthConfig{Design: noc.NoRD, Rate: 0.08, Measure: 30_000, Seed: 4, DynamicClassify: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fixed.AvgPacketLatency, "lat-fixed")
	b.ReportMetric(dyn.AvgPacketLatency, "lat-dynamic")
	b.ReportMetric(float64(fixed.Wakeups), "wakeups-fixed")
	b.ReportMetric(float64(dyn.Wakeups), "wakeups-dynamic")
}

// BenchmarkAblationTickCost measures the raw simulation speed of the
// cycle kernel per design (cost of one network cycle at 5% load).
func BenchmarkAblationTickCost(b *testing.B) {
	for _, d := range noc.Designs() {
		d := d
		b.Run(d.String(), func(b *testing.B) {
			p := noc.DefaultParams(d)
			n := noc.MustNew(p)
			// Light self-traffic via direct injection.
			for i := 0; i < b.N; i++ {
				if i%20 == 0 {
					n.Inject(n.NewPacket(i%16, (i+5)%16, 0, 1))
				}
				n.Tick()
			}
		})
	}
}

// BenchmarkAblationRingPlacement compares bypass-ring constructions
// (Section 4.4 notes placement as an open design dimension): the default
// row-comb serpentine versus the transposed (column-comb) cycle.
func BenchmarkAblationRingPlacement(b *testing.B) {
	run := func(order []int) float64 {
		p := noc.DefaultParams(noc.NoRD)
		p.RingOrder = order
		p.PerfCentric = nil // isolate the ring effect
		n := noc.MustNew(p)
		inj := traffic.NewSynthetic(n, traffic.UniformRandom, 0.05, 12)
		for c := 0; c < 5_000; c++ {
			inj.Tick(n.Cycle())
			n.Tick()
		}
		n.BeginMeasurement()
		for c := 0; c < 25_000; c++ {
			inj.Tick(n.Cycle())
			n.Tick()
		}
		return n.Collector().AvgPacketLatency()
	}
	// Transposed comb for the 4x4 mesh (column serpentine).
	transposed := []int{0, 4, 8, 12, 13, 9, 5, 6, 10, 14, 15, 11, 7, 3, 2, 1}
	var comb, alt float64
	for i := 0; i < b.N; i++ {
		comb = run(nil)
		alt = run(transposed)
	}
	b.ReportMetric(comb, "lat-comb-ring")
	b.ReportMetric(alt, "lat-transposed-ring")
}
