package sim

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"nord/internal/memsys"
	"nord/internal/noc"
	"nord/internal/power"
	"nord/internal/topology"
)

// SweepDesigns is the subset plotted in the load sweeps (Figures 14, 15).
func SweepDesigns() []noc.Design {
	return []noc.Design{noc.NoPG, noc.ConvPGOpt, noc.NoRD}
}

// Benchmarks returns the PARSEC-like workload names in the paper's order.
func Benchmarks() []string {
	names := make([]string, 0, 10)
	for _, p := range memsys.Profiles() {
		names = append(names, p.Name)
	}
	return names
}

// ---------------------------------------------------------------------
// Figure 1: static power share and router power decomposition.

// TechPoint is one bar of Figure 1(a).
type TechPoint struct {
	NodeNM      int
	Voltage     float64
	StaticShare float64
}

// Fig1aStaticShare computes the static-power share of total router power
// for the paper's nine technology points (Figure 1a).
func Fig1aStaticShare() ([]TechPoint, error) {
	var out []TechPoint
	for _, node := range []int{65, 45, 32} {
		for _, v := range []float64{1.2, 1.1, 1.0} {
			m, err := power.New(power.Tech{NodeNM: node, Voltage: v, FreqGHz: 3.0})
			if err != nil {
				return nil, err
			}
			out = append(out, TechPoint{NodeNM: node, Voltage: v, StaticShare: m.StaticShareAtReferenceLoad()})
		}
	}
	return out, nil
}

// Fig1bBreakdown returns the router power decomposition at 45nm/1.0V
// (Figure 1b) as ordered (component, fraction) pairs.
func Fig1bBreakdown() ([]string, []float64, error) {
	m, err := power.New(power.Tech{NodeNM: 45, Voltage: 1.0, FreqGHz: 3.0})
	if err != nil {
		return nil, nil, err
	}
	frac := m.BreakdownAtReferenceLoad()
	keys := []string{"dynamic", "buffer_static", "va_static", "xbar_static", "clock_static", "sa_static"}
	vals := make([]float64, len(keys))
	for i, k := range keys {
		vals[i] = frac[k]
	}
	return keys, vals, nil
}

// ---------------------------------------------------------------------
// Figure 3 / Section 3.2: idle-period fragmentation.

// IdleRow summarises one benchmark's router idleness under No_PG.
type IdleRow struct {
	Benchmark string
	IdleFrac  float64 // fraction of router-cycles idle (30-70% band)
	LEBETFrac float64 // fraction of idle periods <= BET (paper: >61% avg)
	MeanIdle  float64 // mean idle-period length in cycles
}

// Fig3IdlePeriods measures idle-period fragmentation across the
// PARSEC-like suite on the No_PG baseline.
func Fig3IdlePeriods(scale float64, seed int64) ([]IdleRow, error) {
	benchmarks := Benchmarks()
	results, errs := runCells(context.Background(), len(benchmarks), func(ctx context.Context, i int) (Result, error) {
		return RunWorkloadOpts(ctx, WorkloadConfig{Design: noc.NoPG, Benchmark: benchmarks[i], Scale: scale, Seed: seed}, RunOptions{})
	})
	rows := make([]IdleRow, len(results))
	for i, r := range results {
		if errs[i] != nil {
			return nil, errs[i]
		}
		rows[i] = IdleRow{
			Benchmark: benchmarks[i],
			IdleFrac:  r.IdleFraction,
			LEBETFrac: r.IdleLEBET,
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------
// Figure 6: planner trade-off.

// Fig6Tradeoff returns the Figure 6 curve for the paper's 4x4 mesh and
// the selected performance-centric router set.
func Fig6Tradeoff() ([]topology.TradeoffPoint, []int, error) {
	mesh, err := topology.NewMesh(4, 4)
	if err != nil {
		return nil, nil, err
	}
	ring, err := topology.NewRing(mesh)
	if err != nil {
		return nil, nil, err
	}
	pl := topology.NewPlanner(mesh, ring)
	pts, err := pl.Tradeoff()
	if err != nil {
		return nil, nil, err
	}
	set, err := PerfCentricSet(4, 4)
	if err != nil {
		return nil, nil, err
	}
	return pts, set, nil
}

// ---------------------------------------------------------------------
// Figure 7: wakeup-threshold determination on the pure bypass ring.

// Fig7Point is one measurement with every router forced asleep.
type Fig7Point struct {
	Rate        float64
	AvgLatency  float64
	Throughput  float64
	VCReqWindow float64 // mean VC requests per 10-cycle window
}

// Fig7WakeupThreshold sweeps injection rate with all routers forced off
// (traffic concentrated on the Bypass Ring) and records latency and the
// windowed VC-request metric, reproducing the Section 6.1 methodology.
func Fig7WakeupThreshold(rates []float64, measure int, seed int64) ([]Fig7Point, error) {
	results, errs := runCells(context.Background(), len(rates), func(ctx context.Context, i int) (Result, error) {
		return RunSyntheticOpts(ctx, SynthConfig{
			Design: noc.NoRD, ForcedOff: true, Rate: rates[i],
			Measure: measure, Seed: seed,
		}, RunOptions{})
	})
	out := make([]Fig7Point, len(results))
	for i, r := range results {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out[i] = Fig7Point{
			Rate:        rates[i],
			AvgLatency:  r.AvgPacketLatency,
			Throughput:  r.Throughput,
			VCReqWindow: r.VCReqWindow,
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Figures 8-12: the PARSEC-like suite across the four designs.

// SuiteResult holds one Result per (benchmark, design).
type SuiteResult struct {
	Benchmarks []string
	Results    map[string]map[noc.Design]Result
}

// RunSuite executes the full PARSEC-like suite across all four designs,
// one pool cell per (benchmark, design). progress, when non-nil, is told
// each cell as a worker picks it up — one call at a time, so it need not
// be safe for concurrent use, but from the workers' goroutines and not in
// index order. A cell that fails at runtime (deadlock, protocol
// violation) keeps its partial Result with Err set and the rest of the
// suite runs on; a configuration error or a canceled ctx fails the suite.
func RunSuite(ctx context.Context, scale float64, seed int64, progress func(string)) (*SuiteResult, error) {
	sr := &SuiteResult{Benchmarks: Benchmarks(), Results: map[string]map[noc.Design]Result{}}
	designs := noc.Designs()
	at := func(i int) (string, noc.Design) { return sr.Benchmarks[i/len(designs)], designs[i%len(designs)] }
	var progressMu sync.Mutex
	results, errs := runCells(ctx, len(sr.Benchmarks)*len(designs), func(ctx context.Context, i int) (Result, error) {
		b, d := at(i)
		if progress != nil {
			progressMu.Lock()
			progress(fmt.Sprintf("%s / %s", b, d))
			progressMu.Unlock()
		}
		return RunWorkloadOpts(ctx, WorkloadConfig{Design: d, Benchmark: b, Scale: scale, Seed: seed}, RunOptions{})
	})
	for i, r := range results {
		b, d := at(i)
		if err := errs[i]; err != nil {
			err = fmt.Errorf("sim: %s on %v: %w", b, d, err)
			if !IsRuntimeFailure(err) {
				return nil, err
			}
			r.Design, r.Label, r.Err = d, b, err.Error()
		}
		if sr.Results[b] == nil {
			sr.Results[b] = map[noc.Design]Result{}
		}
		sr.Results[b][d] = r
	}
	return sr, nil
}

// Fig8StaticEnergy returns router static energy normalised to No_PG per
// benchmark per design, plus the per-design average (Figure 8: the paper
// reports Conv_PG ~48.8%, Conv_PG_OPT ~53.0%, NoRD ~37.1% of No_PG).
func (sr *SuiteResult) Fig8StaticEnergy() (map[string]map[noc.Design]float64, map[noc.Design]float64) {
	return sr.normalised(func(r Result) float64 { return r.StaticEnergy() }, noc.NoPG)
}

// Fig9aOverheadEnergy returns power-gating overhead energy normalised to
// Conv_PG (Figure 9a: NoRD reduces it by ~80.7%).
func (sr *SuiteResult) Fig9aOverheadEnergy() (map[string]map[noc.Design]float64, map[noc.Design]float64) {
	return sr.normalised(func(r Result) float64 { return r.Energy.PGOverhead }, noc.ConvPG)
}

// Fig9bWakeups returns wakeup counts normalised to Conv_PG (Figure 9b:
// NoRD cuts wakeups by ~81%).
func (sr *SuiteResult) Fig9bWakeups() (map[string]map[noc.Design]float64, map[noc.Design]float64) {
	return sr.normalised(func(r Result) float64 { return float64(r.Wakeups) }, noc.ConvPG)
}

// Fig10Breakdown returns the five Figure 10 energy bands per benchmark
// per design, normalised to the No_PG total of the same benchmark.
func (sr *SuiteResult) Fig10Breakdown() map[string]map[noc.Design]power.Breakdown {
	out := map[string]map[noc.Design]power.Breakdown{}
	for _, b := range sr.Benchmarks {
		base := sr.Results[b][noc.NoPG].Energy.Total()
		out[b] = map[noc.Design]power.Breakdown{}
		for d, r := range sr.Results[b] {
			e := r.Energy
			if base > 0 {
				e.RouterStatic /= base
				e.RouterDynamic /= base
				e.LinkStatic /= base
				e.LinkDynamic /= base
				e.PGOverhead /= base
			}
			out[b][d] = e
		}
	}
	return out
}

// Fig11Latency returns average packet latency per benchmark per design
// (Figure 11: Conv_PG +63.8%, OPT +41.5%, NoRD +15.2% over No_PG).
func (sr *SuiteResult) Fig11Latency() map[string]map[noc.Design]float64 {
	out := map[string]map[noc.Design]float64{}
	for _, b := range sr.Benchmarks {
		out[b] = map[noc.Design]float64{}
		for d, r := range sr.Results[b] {
			out[b][d] = r.AvgPacketLatency
		}
	}
	return out
}

// LatencyIncreaseAvg returns the average latency increase of each design
// over No_PG across the suite.
func (sr *SuiteResult) LatencyIncreaseAvg() map[noc.Design]float64 {
	sum := map[noc.Design]float64{}
	for _, b := range sr.Benchmarks {
		base := sr.Results[b][noc.NoPG].AvgPacketLatency
		for d, r := range sr.Results[b] {
			if base > 0 {
				sum[d] += r.AvgPacketLatency/base - 1
			}
		}
	}
	for d := range sum {
		sum[d] /= float64(len(sr.Benchmarks))
	}
	return sum
}

// Fig12ExecTime returns execution time normalised to No_PG (Figure 12:
// Conv_PG +11.7%, OPT +8.1%, NoRD +3.9%).
func (sr *SuiteResult) Fig12ExecTime() (map[string]map[noc.Design]float64, map[noc.Design]float64) {
	return sr.normalised(func(r Result) float64 { return float64(r.ExecTime) }, noc.NoPG)
}

// normalised divides a metric by the reference design's value per
// benchmark and returns per-benchmark maps plus per-design averages.
// A non-positive reference (e.g. a degenerate run that delivered zero
// flits) marks the whole benchmark row NaN instead of silently
// reporting 0 — a 0 reads as "this design eliminated the metric", which
// is a very different claim from "the baseline measured nothing". NaN
// rows are excluded from the per-design averages; a design with no
// valid rows averages to NaN.
func (sr *SuiteResult) normalised(metric func(Result) float64, ref noc.Design) (map[string]map[noc.Design]float64, map[noc.Design]float64) {
	rows := map[string]map[noc.Design]float64{}
	sum := map[noc.Design]float64{}
	cnt := map[noc.Design]int{}
	seen := map[noc.Design]bool{}
	for _, b := range sr.Benchmarks {
		base := metric(sr.Results[b][ref])
		rows[b] = map[noc.Design]float64{}
		for d, r := range sr.Results[b] {
			seen[d] = true
			if base <= 0 {
				rows[b][d] = math.NaN()
				continue
			}
			v := metric(r) / base
			rows[b][d] = v
			sum[d] += v
			cnt[d]++
		}
	}
	avg := map[noc.Design]float64{}
	for d := range seen {
		if cnt[d] == 0 {
			avg[d] = math.NaN()
			continue
		}
		avg[d] = sum[d] / float64(cnt[d])
	}
	return rows, avg
}

// ---------------------------------------------------------------------
// Figure 13: impact of wakeup latency.

// Fig13Point is average latency at one wakeup latency for one design.
type Fig13Point struct {
	Design        noc.Design
	WakeupLatency int
	AvgLatency    float64
}

// Fig13WakeupLatency sweeps the wakeup latency (paper: 9..18 cycles) at
// the PARSEC-average load under uniform random traffic. NoRD's curve
// stays flat; the conventional designs degrade (Figure 13).
func Fig13WakeupLatency(lats []int, rate float64, measure int, seed int64) ([]Fig13Point, error) {
	designs := []noc.Design{noc.ConvPG, noc.ConvPGOpt, noc.NoRD}
	at := func(i int) (noc.Design, int) { return designs[i/len(lats)], lats[i%len(lats)] }
	results, errs := runCells(context.Background(), len(designs)*len(lats), func(ctx context.Context, i int) (Result, error) {
		d, wl := at(i)
		return RunSyntheticOpts(ctx, SynthConfig{
			Design: d, Rate: rate, WakeupLatency: wl,
			Measure: measure, Seed: seed,
		}, RunOptions{})
	})
	out := make([]Fig13Point, len(results))
	for i, r := range results {
		if errs[i] != nil {
			return nil, errs[i]
		}
		d, wl := at(i)
		out[i] = Fig13Point{Design: d, WakeupLatency: wl, AvgLatency: r.AvgPacketLatency}
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Figures 14 and 15: full load-range sweeps.

// SweepPoint is one (design, rate) measurement of a load sweep.
type SweepPoint struct {
	Design     noc.Design
	Rate       float64
	AvgLatency float64
	PowerW     float64
	Throughput float64
	Saturated  bool // latency beyond the saturation criterion
	// Err records a failed point (deadlock, protocol violation, panic);
	// the other fields are zero when set.
	Err string
}

// satLatency is the latency at which a sweep point is labelled saturated.
const satLatency = 300

// SweepConfig describes a load sweep: every SweepDesigns design at every
// rate, on one grid, pattern and seed.
type SweepConfig struct {
	Width, Height int
	Pattern       string
	Rates         []float64
	Measure       int // measured cycles per point
	Seed          int64
}

// Filled returns the config with the defaults every point's SynthConfig
// would apply resolved — the canonical form the serve layer hashes.
func (c SweepConfig) Filled() SweepConfig {
	sc := SynthConfig{Width: c.Width, Height: c.Height, Pattern: c.Pattern, Measure: c.Measure}.Filled()
	c.Width, c.Height, c.Pattern, c.Measure = sc.Width, sc.Height, sc.Pattern, sc.Measure
	return c
}

// LoadSweep measures latency and NoC power across the load range for the
// sweep designs (Figures 14 and 15), one pool cell per (design, rate) in
// that order. A point that fails at runtime (deadlock, protocol
// violation, panic) records it in its Err field and the sweep keeps
// going; a configuration error or a canceled ctx fails the sweep.
func LoadSweep(ctx context.Context, c SweepConfig) ([]SweepPoint, error) {
	c = c.Filled()
	designs := SweepDesigns()
	at := func(i int) (noc.Design, float64) { return designs[i/len(c.Rates)], c.Rates[i%len(c.Rates)] }
	results, errs := runCells(ctx, len(designs)*len(c.Rates), func(ctx context.Context, i int) (Result, error) {
		d, rate := at(i)
		return RunSyntheticOpts(ctx, SynthConfig{
			Design: d, Width: c.Width, Height: c.Height, Pattern: c.Pattern,
			Rate: rate, Measure: c.Measure, Seed: c.Seed,
		}, RunOptions{})
	})
	out := make([]SweepPoint, len(results))
	for i, r := range results {
		d, rate := at(i)
		out[i] = SweepPoint{Design: d, Rate: rate}
		switch err := errs[i]; {
		case err == nil:
			out[i].AvgLatency = r.AvgPacketLatency
			out[i].PowerW = r.AvgPowerW
			out[i].Throughput = r.Throughput
			out[i].Saturated = r.AvgPacketLatency > satLatency
		case IsRuntimeFailure(err):
			out[i].Err = err.Error()
		default:
			return nil, err
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Section 6.8: area.

// AreaRow is one design's router area.
type AreaRow struct {
	Design  noc.Design
	AreaMM2 float64
	VsNoPG  float64
	VsOpt   float64
}

// AreaTable computes the Section 6.8 area comparison at 45nm.
func AreaTable() ([]AreaRow, error) {
	m, err := power.New(power.DefaultTech())
	if err != nil {
		return nil, err
	}
	base := m.RouterArea(noc.NoPG.Blocks()).Total()
	opt := m.RouterArea(noc.ConvPGOpt.Blocks()).Total()
	var rows []AreaRow
	for _, d := range noc.Designs() {
		a := m.RouterArea(d.Blocks()).Total()
		rows = append(rows, AreaRow{
			Design:  d,
			AreaMM2: a,
			VsNoPG:  a/base - 1,
			VsOpt:   a/opt - 1,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------
// Formatting helpers shared by the CLI tools.

// FormatMatrix renders per-benchmark × per-design values as a text table.
func FormatMatrix(title string, rows map[string]map[noc.Design]float64, order []string, avg map[noc.Design]float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-14s", "benchmark")
	for _, d := range noc.Designs() {
		fmt.Fprintf(&b, "%14s", d)
	}
	b.WriteString("\n")
	names := order
	if names == nil {
		names = make([]string, 0, len(rows))
		for k := range rows {
			names = append(names, k)
		}
		sort.Strings(names)
	}
	for _, name := range names {
		fmt.Fprintf(&b, "%-14s", name)
		for _, d := range noc.Designs() {
			fmt.Fprintf(&b, "%14.3f", rows[name][d])
		}
		b.WriteString("\n")
	}
	if avg != nil {
		fmt.Fprintf(&b, "%-14s", "AVG")
		for _, d := range noc.Designs() {
			fmt.Fprintf(&b, "%14.3f", avg[d])
		}
		b.WriteString("\n")
	}
	return b.String()
}
