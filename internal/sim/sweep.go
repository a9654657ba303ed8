package sim

import (
	"context"

	"nord/internal/memsys"
	"nord/internal/noc"
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
	results, errs := RunCells(ctx, len(designs)*len(c.Rates), func(ctx context.Context, i int) (Result, error) {
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
