package paper

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"nord/internal/fault"
	"nord/internal/noc"
	"nord/internal/power"
	"nord/internal/sim"
	"nord/internal/topology"
	"nord/internal/traffic"
)

// Rows returns the table of experiments in the paper's order, then the
// ablations beyond it.
//
// Full cells are the ones EXPERIMENTS.md records: seed 1, the suite at
// scale 0.3, synthetic points at 10k warm-up plus 60k measured cycles.
// Quick cells start from the cells of the tests the rows replaced. Each
// band is the quick cell's value widened by its spread over seeds 1–5
// and rounded outward to three digits; it is kept no looser than the
// assertion it replaced, and an ordering's band stays on one side of 1.
func Rows() []Row {
	none := Cell{}
	suite, suiteQuick := Cell{Seed: 1, Scale: 0.3}, Cell{Seed: 3, Scale: 0.02}
	synth := func(seed int64, measure int, rates []float64, knobs ...int) Cell {
		return Cell{Seed: seed, Measure: measure, Rates: rates, Knobs: knobs}
	}
	// A check reads {name, the paper's value, Got (0 here; Measure fills
	// it), lo, hi}.
	return []Row{
		{"fig1a", none, none, fig1a, []Check{
			{"static share 65nm/1.2V", "17.9%", 0, 0.179, 0.18},
			{"static share 45nm/1.1V", "35.4%", 0, 0.353, 0.354},
			{"static share 32nm/1.0V", "47.7%", 0, 0.476, 0.477},
			{"technology points", "9", 0, 9, 9},
		}},
		{"fig1b", none, none, fig1b, []Check{
			{"dynamic", "62% (buffer 21%, VA 7%, xbar 5%, clock 4%, SA 2%)", 0, 0.623, 0.624},
			{"sum of shares", "100%", 0, 1 - 1e-9, 1 + 1e-9},
			{"components", "6", 0, 6, 6},
		}},
		{"fig3", suite, suiteQuick, fromSuite(fig3), []Check{
			{"mean idle periods <= BET", ">61%", 0, 0.532, 0.559},
			{"min idle periods <= BET", "", 0, 0.31, 0.489},
			{"max idle periods <= BET", "", 0, 0.698, 0.723},
			{"min idle fraction", "30.4% (x264)", 0, 0.576, 0.619},
			{"max idle fraction", "71.2% (blackscholes)", 0, 0.768, 0.919},
		}},
		{"fig6", none, none, fig6, []Check{
			{"points", "K = 0..16", 0, 17, 17},
			{"set size", "6 ({4,5,6,7,13,14})", 0, 6, 6},
			{"hops K=0", "", 0, 8, 8},
			{"hops K=16", "", 0, 2.66, 2.67},
			{"cycles/hop K=0", "", 0, 3, 3},
			{"cycles/hop K=16", "", 0, 5, 5},
		}},
		{"fig7", synth(1, 60_000, []float64{0.005, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.08, 0.10}),
			synth(5, 20_000, []float64{0.01, 0.08}),
			// 0.45 flits/node/cycle: the 4x4 mesh's uniform saturation
			// throughput, the "full network" the ring's share is taken of.
			fig7(0.45), []Check{
				{"latency, top / bottom rate", "rises sharply", 0, 33.8, 50.9},
				{"VC requests, top / bottom rate", "rises", 0, 77, 114},
				{"throughput, top rate", "", 0, 0.0168, 0.0207},
				{"ring share of full network", "~14%", 0, 0.0374, 0.046},
			}},
		{"suite", suite, suiteQuick, fromSuite(suiteCells), []Check{{"cells with a result", "10 x 4", 0, 40, 40}}},
		{"fig8", suite, suiteQuick, normRow("Figure 8: router static energy (normalised to No_PG)", noc.NoPG, sim.Result.StaticEnergy), []Check{
			{"No_PG", "1", 0, 1, 1},
			{"Conv_PG", "0.488", 0, 0.7, 0.94},
			{"Conv_PG_OPT", "0.530", 0, 0.667, 0.9},
			{"NoRD", "0.371", 0, 0.687, 0.869},
			{"NoRD / Conv_PG_OPT", "0.70", 0, 0.91, 1},
		}},
		{"fig9a", suite, suiteQuick, normRow("Figure 9(a): power-gating overhead energy (normalised to Conv_PG)", noc.ConvPG,
			func(r sim.Result) float64 { return r.Energy.PGOverhead }), []Check{
			{"Conv_PG_OPT", "0.74", 0, 0.96, 1.03},
			{"NoRD", "0.193", 0, 0.171, 0.199},
		}},
		{"fig9b", suite, suiteQuick, normRow("Figure 9(b): router wakeups (normalised to Conv_PG)", noc.ConvPG,
			func(r sim.Result) float64 { return float64(r.Wakeups) }), []Check{
			{"Conv_PG_OPT", "0.733", 0, 0.96, 1.03},
			{"NoRD", "0.190", 0, 0.171, 0.199},
		}},
		{"fig10", suite, suiteQuick, fromSuite(fig10), []Check{
			{"NoRD total", "0.909", 0, 1, 1.27},
			{"NoRD / Conv_PG total", "0.906", 0, 0.94, 1},
			{"NoRD / Conv_PG_OPT total", "0.794", 0, 1, 1.11},
		}},
		{"fig11", suite, suiteQuick, normRow("Figure 11: average packet latency (normalised to No_PG)", noc.NoPG,
			func(r sim.Result) float64 { return r.AvgPacketLatency }), []Check{
			{"Conv_PG", "1.638", 0, 2.13, 2.24},
			{"Conv_PG_OPT", "1.415", 0, 1.97, 2.09},
			{"NoRD", "1.152", 0, 1.742, 1.777},
			{"No_PG / NoRD, worst benchmark", "< 1", 0, 0.632, 0.666},
			{"NoRD / Conv_PG_OPT, worst benchmark", "< 1", 0, 0.901, 0.952},
			{"Conv_PG_OPT / Conv_PG, worst benchmark", "< 1", 0, 0.937, 0.953},
		}},
		{"fig12", suite, suiteQuick, normRow("Figure 12: execution time (normalised to No_PG)", noc.NoPG,
			func(r sim.Result) float64 { return float64(r.ExecTime) }), []Check{
			{"Conv_PG", "1.117", 0, 1.31, 1.43},
			{"Conv_PG_OPT", "1.081", 0, 1.19, 1.39},
			{"NoRD", "1.039", 0, 1.2, 1.34},
			{"NoRD / Conv_PG_OPT", "0.961", 0, 0.88, 1},
		}},
		{"fig13", synth(1, 60_000, []float64{0.05}, 9, 12, 15, 18), synth(7, 25_000, []float64{0.05}, 9, 18), fig13(), []Check{
			{"Conv_PG latency, slowest / fastest wakeup", "~1.5", 0, 1.2, 1.25},
			{"Conv_PG_OPT latency, slowest / fastest wakeup", "~1.5", 0, 1.25, 1.28},
			{"NoRD latency, slowest / fastest wakeup", "1 (flat)", 0, 0.96, 1.02},
			{"NoRD growth / Conv_PG growth", "~0", 0, -0.137, 0.082},
		}},
		{"fig14", synth(1, 60_000, []float64{0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45}),
			synth(1, 20_000, []float64{0.02, 0.10, 0.45}), sweep(4, 4, "uniform"), []Check{
				{"NoRD / Conv_PG_OPT latency, lowest rate", "< 1", 0, 0.782, 0.834},
				{"NoRD / No_PG power, lowest rate", "< 1", 0, 0.701, 0.73},
				{"Conv_PG_OPT / No_PG power, lowest rate", "< 1", 0, 0.678, 0.709},
				{"NoRD / Conv_PG_OPT latency, top rate", "> 1 (NoRD saturates first)", 0, 0.978, 0.988},
			}},
		{"fig15", synth(1, 60_000, []float64{0.02, 0.05, 0.08, 0.12, 0.16, 0.20, 0.25, 0.30}),
			synth(1, 10_000, []float64{0.05, 0.10}), sweep(8, 8, "uniform"), []Check{
				{"NoRD / Conv_PG_OPT latency, lowest rate", "< 1 (gap grows with size)", 0, 1.04, 1.19},
				{"NoRD / No_PG power, lowest rate", "< 1", 0, 1.21, 1.28},
				{"Conv_PG_OPT / No_PG power, lowest rate", "< 1", 0, 0.95, 0.96},
				{"NoRD / Conv_PG_OPT latency, top rate", "", 0, 1, 1.02},
			}},
		{"fig15bc", synth(1, 60_000, []float64{0.01, 0.03, 0.05, 0.08, 0.10, 0.12, 0.15}),
			synth(1, 10_000, []float64{0.04}), sweep(8, 8, "bitcomp"), []Check{
				{"NoRD / Conv_PG_OPT latency, lowest rate", "", 0, 1.01, 1.2},
				{"NoRD / No_PG power, lowest rate", "< 1", 0, 1.14, 1.22},
				{"Conv_PG_OPT / No_PG power, lowest rate", "< 1", 0, 0.924, 0.936},
			}},
		{"area", none, none, area, []Check{
			{"NoRD vs Conv_PG_OPT", "+3.1%", 0, 0.0309, 0.0311},
			{"Conv_PG vs No_PG (PG switch)", "4–10%", 0, 0.0599, 0.0601},
		}},
		{"sec6.1", synth(1, 60_000, []float64{0.02, 0.05, 0.08}, 1, 2, 3, 4, 5, 6, 8),
			synth(10, 12_000, []float64{0.05}, 1, 4, 6, 8), sec61(), []Check{
				{"symmetric 8 / 1 wakeups", "< 1", 0, 0.228, 0.326},
				{"symmetric 8 / 1 latency", "> 1", 0, 1.31, 1.51},
				{"symmetric 4 / 1 latency", "~1.6", 0, 1.17, 1.32},
				{"asymmetric / symmetric 6 wakeups", "< 1", 0, 0.652, 0.816},
				{"asymmetric / symmetric 6 latency", "<= 1", 0, 0.87, 1},
			}},
		{"sec6.8", synth(1, 60_000, []float64{0.05}), synth(3, 30_000, []float64{0.05}), sec68(),
			[]Check{{"NoRD / Conv_PG_OPT latency", "competitive", 0, 0.716, 0.763}}},
		{"misroute", synth(1, 60_000, []float64{0.05}, 1, 2, 4, 8), synth(2, 20_000, []float64{0.05}, 1, 2, 8), misroute(), []Check{
			{"cap 1 / cap 2 latency", "", 0, 0.99, 1.04},
			{"cap 8 / cap 2 latency", "", 0, 1.07, 1.17},
		}},
		{"dynamic", synth(1, 60_000, []float64{0.08}), synth(4, 30_000, []float64{0.08}), dynamic(), []Check{
			{"dynamic / fixed latency", "", 0, 0.89, 1.02},
			{"dynamic / fixed wakeups", "", 0, 1.02, 1.24},
		}},
		{"ring", synth(1, 60_000, []float64{0.05}), synth(12, 25_000, []float64{0.05}), ring,
			[]Check{{"transposed / comb latency", "", 0, 0.95, 1.06}}},
		{"degradation", synth(1, 30_000, []float64{0.05}, 0, 1, 2, 3, 4, 5, 6), synth(3, 4_000, []float64{0.05}, 0, 1, 2), degradation, []Check{
			{"NoRD worst delivered fraction", "", 0, 1, 1},
			{"NoRD cells failed", "", 0, 0, 0},
			{"fault-free cells failed", "", 0, 0, 0},
			{"conventional faulty cells reporting a deadlock", "", 0, 1, 1},
			{"NoRD latency, most / no fails", "", 0, 1.02, 1.21},
		}},
	}
}

// Runner measures a row at one cell: its tables, and a value for each of
// the row's checks by name.
type Runner func(ctx context.Context, e Env, c Cell) ([]Table, map[string]float64, error)

// fromSuite adapts a row read from the suite run at the cell.
func fromSuite(f func(sr *SuiteResult) ([]Table, map[string]float64)) Runner {
	return func(ctx context.Context, e Env, c Cell) ([]Table, map[string]float64, error) {
		sr, err := e.suite(ctx, c)
		if err != nil {
			return nil, nil, err
		}
		tables, got := f(sr)
		return tables, got, nil
	}
}

// runs is a row of labelled synthetic runs. list adds them for a cell;
// they share sim's pool at the cell's seed and measured cycles, and read
// turns the results, by label, into check values. Any failure fails the
// row. Its table has one line per run.
type runs struct {
	title string
	list  func(c Cell, add func(label string, cfg sim.SynthConfig))
	read  func(c Cell, by map[string]sim.Result) map[string]float64
}

func (s runs) run(ctx context.Context, _ Env, c Cell) ([]Table, map[string]float64, error) {
	var labels []string
	var cfgs []sim.SynthConfig
	s.list(c, func(label string, cfg sim.SynthConfig) {
		cfg.Measure, cfg.Seed = c.Measure, c.Seed
		labels, cfgs = append(labels, label), append(cfgs, cfg)
	})
	res, errs := sim.RunCells(ctx, len(cfgs), func(ctx context.Context, i int) (sim.Result, error) {
		return sim.RunSyntheticOpts(ctx, cfgs[i], sim.RunOptions{})
	})
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	t := Table{s.title, []string{"run", "rate", "latency", "throughput", "wakeups", "power (W)", "VC req / 10 cycles", "misroutes"}, nil}
	by := map[string]sim.Result{}
	for i, r := range res {
		t.Rows = append(t.Rows, []string{labels[i], ff(cfgs[i].Rate, 3), ff(r.AvgPacketLatency, 1), ff(r.Throughput, 4),
			u(r.Wakeups), ff(r.AvgPowerW, 2), ff(r.VCReqWindow, 2), u(r.Misroutes)})
		by[labels[i]] = r
	}
	return []Table{t}, s.read(c, by), nil
}

func ff(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }

func pct(v float64) string { return ff(100*v, 1) + "%" }

func u(v uint64) string { return strconv.FormatUint(v, 10) }

func fig1a(context.Context, Env, Cell) ([]Table, map[string]float64, error) {
	t := Table{"Figure 1(a): router static power share at PARSEC-average load", []string{"node", "voltage", "static share"}, nil}
	got := map[string]float64{}
	for _, node := range []int{65, 45, 32} {
		for _, v := range []float64{1.2, 1.1, 1.0} {
			share := power.MustNew(power.Tech{NodeNM: node, Voltage: v, FreqGHz: 3.0}).StaticShareAtReferenceLoad()
			t.Rows = append(t.Rows, []string{fmt.Sprintf("%d nm", node), ff(v, 1) + " V", pct(share)})
			got[fmt.Sprintf("static share %dnm/%.1fV", node, v)] = share
		}
	}
	got["technology points"] = float64(len(t.Rows))
	return []Table{t}, got, nil
}

func fig1b(context.Context, Env, Cell) ([]Table, map[string]float64, error) {
	frac := power.MustNew(power.Tech{NodeNM: 45, Voltage: 1.0, FreqGHz: 3.0}).BreakdownAtReferenceLoad()
	t := Table{"Figure 1(b): router power decomposition at 45nm/1.0V", []string{"component", "share"}, nil}
	got := map[string]float64{}
	for _, k := range []string{"dynamic", "buffer_static", "va_static", "xbar_static", "clock_static", "sa_static"} {
		t.Rows = append(t.Rows, []string{k, pct(frac[k])})
		got["sum of shares"] += frac[k]
	}
	got["dynamic"], got["components"] = frac["dynamic"], float64(len(t.Rows))
	return []Table{t}, got, nil
}

func fig3(sr *SuiteResult) ([]Table, map[string]float64) {
	t := Table{"Figure 3 / §3.2: router idleness under No_PG", []string{"benchmark", "idle fraction", "idle periods <= BET"}, nil}
	var idle, bet []float64
	mean := 0.0
	for _, b := range sr.Benchmarks {
		r := sr.Results[b][noc.NoPG]
		t.Rows = append(t.Rows, []string{b, pct(r.IdleFraction), pct(r.IdleLEBET)})
		idle, bet = append(idle, r.IdleFraction), append(bet, r.IdleLEBET)
		mean += r.IdleLEBET / float64(len(sr.Benchmarks))
	}
	t.Rows = append(t.Rows, []string{"AVG", "", pct(mean)})
	return []Table{t}, map[string]float64{
		"mean idle periods <= BET": mean,
		"min idle periods <= BET":  slices.Min(bet), "max idle periods <= BET": slices.Max(bet),
		"min idle fraction": slices.Min(idle), "max idle fraction": slices.Max(idle),
	}
}

func fig6(context.Context, Env, Cell) ([]Table, map[string]float64, error) {
	mesh := topology.MustMesh(4, 4)
	ring, err := topology.NewRing(mesh)
	if err != nil {
		return nil, nil, err
	}
	pts, err := topology.NewPlanner(mesh, ring).Tradeoff()
	if err != nil {
		return nil, nil, err
	}
	set, err := sim.PerfCentricSet(4, 4)
	t := Table{fmt.Sprintf("Figure 6: distance and per-hop latency vs powered-on routers K (4x4 mesh; the performance-centric set is %v)", set),
		[]string{"K", "avg hops", "cycles/hop"}, nil}
	got := map[string]float64{"points": float64(len(pts)), "set size": float64(len(set))}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{strconv.Itoa(p.K), ff(p.AvgHops, 2), ff(p.PerHopCycles, 2)})
		got[fmt.Sprintf("hops K=%d", p.K)] = p.AvgHops
		got[fmt.Sprintf("cycles/hop K=%d", p.K)] = p.PerHopCycles
	}
	return []Table{t}, got, err
}

// fig7 runs the ring with every router forced off; fullNetwork is the
// throughput the ring's share is taken of.
func fig7(fullNetwork float64) Runner {
	label := func(rate float64) string { return fmt.Sprintf("ring only @ %.3f", rate) }
	return runs{"Figure 7: every router forced off, traffic on the bypass ring only", func(c Cell, add func(string, sim.SynthConfig)) {
		for _, r := range c.Rates {
			add(label(r), sim.SynthConfig{Design: noc.NoRD, ForcedOff: true, Rate: r})
		}
	}, func(c Cell, by map[string]sim.Result) map[string]float64 {
		lo, hi, peak := by[label(c.Rates[0])], by[label(c.Rates[len(c.Rates)-1])], 0.0
		for _, r := range by {
			peak = max(peak, r.Throughput)
		}
		return map[string]float64{
			"latency, top / bottom rate":     hi.AvgPacketLatency / lo.AvgPacketLatency,
			"VC requests, top / bottom rate": hi.VCReqWindow / lo.VCReqWindow,
			"throughput, top rate":           hi.Throughput,
			"ring share of full network":     peak / fullNetwork,
		}
	}}.run
}

func suiteCells(sr *SuiteResult) ([]Table, map[string]float64) {
	t := Table{"Figures 8–12: every (benchmark, design) cell", []string{
		"benchmark", "design", "exec_cycles", "avg_latency_cycles", "wakeups", "gate_offs", "off_fraction", "idle_fraction",
		"router_static_j", "router_dynamic_j", "link_static_j", "link_dynamic_j", "pg_overhead_j",
		"noc_energy_j", "avg_power_w", "misroutes", "escapes", "error"}, nil}
	// Round-trip precision: cycle and energy counts exceed 1e8.
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	ok := 0
	for _, b := range sr.Benchmarks {
		for _, d := range noc.Designs() {
			r := sr.Results[b][d]
			t.Rows = append(t.Rows, []string{
				b, d.String(), u(r.ExecTime), f(r.AvgPacketLatency),
				u(r.Wakeups), u(r.GateOffs), f(r.OffFraction), f(r.IdleFraction),
				f(r.Energy.RouterStatic), f(r.Energy.RouterDynamic),
				f(r.Energy.LinkStatic), f(r.Energy.LinkDynamic), f(r.Energy.PGOverhead),
				f(r.Energy.Total()), f(r.AvgPowerW), u(r.Misroutes), u(r.Escapes), r.Err,
			})
			if r.Err == "" && r.ExecTime > 0 {
				ok++
			}
		}
	}
	return []Table{t}, map[string]float64{"cells with a result": float64(ok)}
}

// normRow is a suite row of one metric per benchmark and design,
// normalised to ref's value on the same benchmark, with the per-design
// average as its AVG line. Its values are each design's average
// ("NoRD"), the ratio of two averages ("NoRD / Conv_PG_OPT") and the
// largest per-benchmark ratio ("NoRD / Conv_PG_OPT, worst benchmark").
func normRow(title string, ref noc.Design, metric func(sim.Result) float64) Runner {
	return fromSuite(func(sr *SuiteResult) ([]Table, map[string]float64) {
		rows, avg := sr.normalised(metric, ref)
		rows["AVG"] = avg
		t := Table{Title: title, Header: []string{"benchmark"}}
		got := map[string]float64{}
		for _, a := range noc.Designs() {
			t.Header = append(t.Header, a.String())
			got[a.String()] = avg[a]
			for _, b := range noc.Designs() {
				pair := a.String() + " / " + b.String()
				got[pair] = avg[a] / avg[b]
				for _, bench := range sr.Benchmarks {
					got[pair+", worst benchmark"] = max(got[pair+", worst benchmark"], rows[bench][a]/rows[bench][b])
				}
			}
		}
		for _, b := range append(slices.Clone(sr.Benchmarks), "AVG") {
			line := []string{b}
			for _, d := range noc.Designs() {
				line = append(line, ff(rows[b][d], 3))
			}
			t.Rows = append(t.Rows, line)
		}
		return []Table{t}, got
	})
}

func fig10(sr *SuiteResult) ([]Table, map[string]float64) {
	t := Table{"Figure 10: NoC energy breakdown (normalised to the No_PG total)", []string{
		"benchmark", "design", "rtr.stat", "rtr.dyn", "lnk.stat", "lnk.dyn", "overhead", "total"}, nil}
	total := map[noc.Design]float64{}
	for _, b := range sr.Benchmarks {
		base := sr.Results[b][noc.NoPG].Energy.Total()
		for _, d := range noc.Designs() {
			e := sr.Results[b][d].Energy
			t.Rows = append(t.Rows, []string{b, d.String(), ff(e.RouterStatic/base, 3), ff(e.RouterDynamic/base, 3),
				ff(e.LinkStatic/base, 3), ff(e.LinkDynamic/base, 3), ff(e.PGOverhead/base, 3), ff(e.Total()/base, 3)})
			total[d] += e.Total() / base / float64(len(sr.Benchmarks))
		}
	}
	for _, d := range noc.Designs() {
		t.Rows = append(t.Rows, []string{"AVG", d.String(), "", "", "", "", "", ff(total[d], 3)})
	}
	return []Table{t}, map[string]float64{
		"NoRD total":               total[noc.NoRD],
		"NoRD / Conv_PG total":     total[noc.NoRD] / total[noc.ConvPG],
		"NoRD / Conv_PG_OPT total": total[noc.NoRD] / total[noc.ConvPGOpt],
	}
}

// fig13 runs each conventional design and NoRD at every wakeup latency
// in the cell's knobs.
func fig13() Runner {
	designs := []noc.Design{noc.ConvPG, noc.ConvPGOpt, noc.NoRD}
	label := func(d noc.Design, wl int) string { return fmt.Sprintf("%v wl=%d", d, wl) }
	return runs{"Figure 13: average latency vs wakeup latency (uniform random)", func(c Cell, add func(string, sim.SynthConfig)) {
		for _, d := range designs {
			for _, wl := range c.Knobs {
				add(label(d, wl), sim.SynthConfig{Design: d, Rate: c.Rates[0], WakeupLatency: wl})
			}
		}
	}, func(c Cell, by map[string]sim.Result) map[string]float64 {
		got, growth := map[string]float64{}, map[noc.Design]float64{}
		for _, d := range designs {
			first, last := by[label(d, c.Knobs[0])].AvgPacketLatency, by[label(d, c.Knobs[len(c.Knobs)-1])].AvgPacketLatency
			got[d.String()+" latency, slowest / fastest wakeup"], growth[d] = last/first, last-first
		}
		got["NoRD growth / Conv_PG growth"] = growth[noc.NoRD] / growth[noc.ConvPG]
		return got
	}}.run
}

// sweep is a load-sweep row (Figures 14 and 15) on a w x h mesh.
func sweep(w, h int, pattern string) Runner {
	return func(ctx context.Context, _ Env, c Cell) ([]Table, map[string]float64, error) {
		pts, err := sim.LoadSweep(ctx, sim.SweepConfig{Width: w, Height: h, Pattern: pattern, Rates: c.Rates, Measure: c.Measure, Seed: c.Seed})
		if err != nil {
			return nil, nil, err
		}
		t := Table{fmt.Sprintf("%dx%d mesh, %s traffic", w, h, pattern), []string{
			"design", "rate", "latency", "power (W)", "throughput", "saturated", "error"}, nil}
		for _, p := range pts {
			t.Rows = append(t.Rows, []string{p.Design.String(), ff(p.Rate, 3), ff(p.AvgLatency, 1), ff(p.PowerW, 2),
				ff(p.Throughput, 4), strconv.FormatBool(p.Saturated), p.Err})
		}
		// pts runs design by design (sim.SweepDesigns: No_PG, Conv_PG_OPT,
		// NoRD), each over every rate.
		n := len(c.Rates)
		noPG, opt, nord := pts[:n], pts[n:2*n], pts[2*n:]
		return []Table{t}, map[string]float64{
			"NoRD / Conv_PG_OPT latency, lowest rate": nord[0].AvgLatency / opt[0].AvgLatency,
			"NoRD / No_PG power, lowest rate":         nord[0].PowerW / noPG[0].PowerW,
			"Conv_PG_OPT / No_PG power, lowest rate":  opt[0].PowerW / noPG[0].PowerW,
			"NoRD / Conv_PG_OPT latency, top rate":    nord[n-1].AvgLatency / opt[n-1].AvgLatency,
		}, nil
	}
}

func area(context.Context, Env, Cell) ([]Table, map[string]float64, error) {
	m := power.MustNew(power.DefaultTech())
	areaOf := func(d noc.Design) float64 { return m.RouterArea(d.Blocks()).Total() }
	base, opt := areaOf(noc.NoPG), areaOf(noc.ConvPGOpt)
	t := Table{"§6.8: router area at 45nm", []string{"design", "area (mm^2)", "vs No_PG", "vs Conv_PG_OPT"}, nil}
	for _, d := range noc.Designs() {
		a := areaOf(d)
		t.Rows = append(t.Rows, []string{d.String(), ff(a, 4), fmt.Sprintf("%+.1f%%", 100*(a/base-1)), fmt.Sprintf("%+.1f%%", 100*(a/opt-1))})
	}
	return []Table{t}, map[string]float64{
		"NoRD vs Conv_PG_OPT":          areaOf(noc.NoRD)/opt - 1,
		"Conv_PG vs No_PG (PG switch)": areaOf(noc.ConvPG)/base - 1,
	}, nil
}

// sec61 runs, at every rate, NoRD with the planner's two threshold
// classes (threshold 0 below), then with one symmetric threshold per
// knob on every router. The checks read the top rate.
func sec61() Runner {
	label := func(th int, rate float64) string { return fmt.Sprintf("threshold %d @ %.3f", th, rate) }
	return runs{"§6.1: NoRD wakeup thresholds (threshold 0: the planner's asymmetric 1 / 6 classes)", func(c Cell, add func(string, sim.SynthConfig)) {
		for _, rate := range c.Rates {
			add(label(0, rate), sim.SynthConfig{Design: noc.NoRD, Rate: rate})
			for _, th := range c.Knobs {
				add(label(th, rate), sim.SynthConfig{Design: noc.NoRD, Rate: rate, NoPerfCentric: true, ThresholdPerf: th, ThresholdPower: th})
			}
		}
	}, func(c Cell, by map[string]sim.Result) map[string]float64 {
		lat := func(th int) float64 { return by[label(th, c.Rates[len(c.Rates)-1])].AvgPacketLatency }
		wakes := func(th int) float64 { return float64(by[label(th, c.Rates[len(c.Rates)-1])].Wakeups) }
		return map[string]float64{
			"symmetric 8 / 1 wakeups": wakes(8) / wakes(1), "symmetric 8 / 1 latency": lat(8) / lat(1),
			"symmetric 4 / 1 latency":          lat(4) / lat(1),
			"asymmetric / symmetric 6 wakeups": wakes(0) / wakes(6), "asymmetric / symmetric 6 latency": lat(0) / lat(6),
		}
	}}.run
}

func sec68() Runner {
	return runs{"§6.8: two-stage routers", func(c Cell, add func(string, sim.SynthConfig)) {
		add("Conv_PG_OPT, 1-cycle early wakeup", sim.SynthConfig{Design: noc.ConvPGOpt, Rate: c.Rates[0], TwoStageRouter: true})
		add("NoRD, aggressive 1-cycle bypass", sim.SynthConfig{Design: noc.NoRD, Rate: c.Rates[0], TwoStageRouter: true, AggressiveBypass: true})
	}, func(c Cell, by map[string]sim.Result) map[string]float64 {
		return map[string]float64{"NoRD / Conv_PG_OPT latency": by["NoRD, aggressive 1-cycle bypass"].AvgPacketLatency /
			by["Conv_PG_OPT, 1-cycle early wakeup"].AvgPacketLatency}
	}}.run
}

func misroute() Runner {
	label := func(k int) string { return fmt.Sprintf("cap %d", k) }
	return runs{"Ablation: NoRD misroute cap", func(c Cell, add func(string, sim.SynthConfig)) {
		for _, k := range c.Knobs {
			add(label(k), sim.SynthConfig{Design: noc.NoRD, Rate: c.Rates[0], MisrouteCap: k})
		}
	}, func(c Cell, by map[string]sim.Result) map[string]float64 {
		lat := func(k int) float64 { return by[label(k)].AvgPacketLatency }
		return map[string]float64{"cap 1 / cap 2 latency": lat(1) / lat(2), "cap 8 / cap 2 latency": lat(8) / lat(2)}
	}}.run
}

func dynamic() Runner {
	return runs{"Ablation: planner-fixed vs demand-ranked performance-centric class", func(c Cell, add func(string, sim.SynthConfig)) {
		add("planner-fixed", sim.SynthConfig{Design: noc.NoRD, Rate: c.Rates[0]})
		add("dynamic", sim.SynthConfig{Design: noc.NoRD, Rate: c.Rates[0], DynamicClassify: true})
	}, func(c Cell, by map[string]sim.Result) map[string]float64 {
		fixed, dyn := by["planner-fixed"], by["dynamic"]
		return map[string]float64{
			"dynamic / fixed latency": dyn.AvgPacketLatency / fixed.AvgPacketLatency,
			"dynamic / fixed wakeups": float64(dyn.Wakeups) / float64(fixed.Wakeups),
		}
	}}.run
}

// ring compares the default comb ring with the transposed (column) comb
// on the 4x4 mesh, with no performance-centric class. The ring order is
// a noc parameter no run config carries, so this row drives the network.
func ring(ctx context.Context, _ Env, c Cell) ([]Table, map[string]float64, error) {
	var lat []float64
	for _, order := range [][]int{nil, {0, 4, 8, 12, 13, 9, 5, 6, 10, 14, 15, 11, 7, 3, 2, 1}} {
		p := noc.DefaultParams(noc.NoRD)
		p.RingOrder = order
		n, err := noc.New(p)
		if err != nil {
			return nil, nil, err
		}
		inj := traffic.NewSynthetic(n, traffic.UniformRandom, c.Rates[0], c.Seed)
		for cyc := 0; cyc < 10_000+c.Measure && err == nil; cyc++ {
			if cyc == 10_000 {
				n.BeginMeasurement()
			}
			inj.Tick(n.Cycle())
			err = n.Step()
		}
		if err := errors.Join(err, ctx.Err()); err != nil {
			return nil, nil, err
		}
		lat = append(lat, n.Collector().AvgPacketLatency())
	}
	t := Table{fmt.Sprintf("Ablation: bypass-ring placement (4x4, uniform random @ %.2f)", c.Rates[0]), []string{"ring", "latency"},
		[][]string{{"comb (row serpentine)", ff(lat[0], 1)}, {"transposed (column serpentine)", ff(lat[1], 1)}}}
	return []Table{t}, map[string]float64{"transposed / comb latency": lat[1] / lat[0]}, nil
}

// The degradation row's fault load: the deadlock horizon, short because a
// partition stalls a network completely, and the transient link faults
// added to every cell with a failed router.
const (
	degradationWatchdog = 5_000
	degradationCorrupt  = 4
)

// degradation runs every design on the 8x8 mesh with each knob's count of
// hard-failed routers, under one seeded fault schedule per count. A
// failed router acts as one gated off for good: NoRD's node stays on the
// bypass ring, while the conventional designs partition. A cell that
// fails at runtime keeps its partial result and its error on its line;
// only a configuration error fails the row.
func degradation(ctx context.Context, _ Env, c Cell) ([]Table, map[string]float64, error) {
	var cfgs []sim.SynthConfig
	for _, d := range noc.Designs() {
		for _, fails := range c.Knobs {
			fc := &fault.Config{Seed: c.Seed, HardFails: fails}
			if fails > 0 {
				fc.CorruptLinks = degradationCorrupt
			}
			cfgs = append(cfgs, sim.SynthConfig{Design: d, Width: 8, Height: 8, Rate: c.Rates[0], Measure: c.Measure, Seed: c.Seed,
				Faults: fc, WatchdogLimit: degradationWatchdog})
		}
	}
	res, errs := sim.RunCells(ctx, len(cfgs), func(ctx context.Context, i int) (sim.Result, error) {
		return sim.RunSyntheticOpts(ctx, cfgs[i], sim.RunOptions{})
	})
	t := Table{fmt.Sprintf("Graceful degradation: 8x8 mesh, uniform @ %.2f, %d corrupt links per faulty cell", c.Rates[0], degradationCorrupt),
		[]string{"design", "hard fails", "delivered fraction", "latency", "retransmits", "watchdog wakeups", "packets lost", "error"}, nil}
	got := map[string]float64{"NoRD worst delivered fraction": 1, "NoRD cells failed": 0, "fault-free cells failed": 0}
	conv, deadlocked := 0, 0
	var ringLat []float64 // NoRD's latency at each fail count
	for i, r := range res {
		d, fails, err := cfgs[i].Design, cfgs[i].Faults.HardFails, errs[i]
		if err != nil && !sim.IsRuntimeFailure(err) {
			return nil, nil, err
		}
		fr := r.Fault
		if fr == nil {
			fr = &fault.Report{}
		}
		msg := ""
		if err != nil {
			msg, _, _ = strings.Cut(err.Error(), "\n")
		}
		t.Rows = append(t.Rows, []string{d.String(), strconv.Itoa(fails), ff(fr.DeliveredFraction(), 4), ff(r.AvgPacketLatency, 2),
			u(fr.Retransmits), u(fr.WatchdogWakeups), u(fr.PacketsLost), msg})
		var de *fault.DeadlockError
		switch {
		case d.Blocks().Bypass: // NoRD: the ring keeps every node reachable
			ringLat = append(ringLat, r.AvgPacketLatency)
			got["NoRD worst delivered fraction"] = min(got["NoRD worst delivered fraction"], fr.DeliveredFraction())
			if err != nil {
				got["NoRD cells failed"]++
			}
		case fails == 0:
			if err != nil {
				got["fault-free cells failed"]++
			}
		default:
			conv++
			if errors.As(err, &de) {
				deadlocked++
			}
		}
	}
	got["conventional faulty cells reporting a deadlock"] = float64(deadlocked) / float64(conv)
	got["NoRD latency, most / no fails"] = ringLat[len(ringLat)-1] / ringLat[0]
	return []Table{t}, got, nil
}
