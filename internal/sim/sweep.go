package sim

import (
	"context"
	"fmt"

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
// rate, on one grid, pattern and seed. It is also the body of a sweep job
// (POST /v1/jobs), hence the JSON tags; cache keys hash the Go field
// names, so the tags move no key.
type SweepConfig struct {
	Width   int       `json:"width"`
	Height  int       `json:"height"`
	Pattern string    `json:"pattern"`
	Rates   []float64 `json:"rates"`
	Measure int       `json:"measure"` // measured cycles per point
	Seed    int64     `json:"seed"`
}

// Filled returns the config with the defaults every point's SynthConfig
// would apply resolved — the canonical form the serve layer hashes.
func (c SweepConfig) Filled() SweepConfig {
	sc := SynthConfig{Width: c.Width, Height: c.Height, Pattern: c.Pattern, Measure: c.Measure}.Filled()
	c.Width, c.Height, c.Pattern, c.Measure = sc.Width, sc.Height, sc.Pattern, sc.Measure
	return c
}

// points returns the sweep's cells, one per (design, rate) in that order.
func (c SweepConfig) points() []SynthConfig {
	var out []SynthConfig
	for _, d := range SweepDesigns() {
		for _, rate := range c.Rates {
			out = append(out, SynthConfig{
				Design: d, Width: c.Width, Height: c.Height, Pattern: c.Pattern,
				Rate: rate, Measure: c.Measure, Seed: c.Seed,
			})
		}
	}
	return out
}

// Validate reports whether the sweep may run: at least one rate, and
// every point's SynthConfig.Validate. LoadSweep asks it.
func (c SweepConfig) Validate() error {
	if len(c.Rates) == 0 {
		return fmt.Errorf("sim: sweep needs at least one rate")
	}
	for _, p := range c.points() {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// LoadSweep measures latency and NoC power across the load range for the
// sweep designs (Figures 14 and 15), one pool cell per (design, rate) in
// that order. A point that fails at runtime (deadlock, protocol
// violation, panic) records it in its Err field and the sweep keeps
// going; a configuration error or a canceled ctx fails the sweep.
func LoadSweep(ctx context.Context, c SweepConfig) ([]SweepPoint, error) {
	c = c.Filled()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	points := c.points()
	results, errs := RunCells(ctx, len(points), func(ctx context.Context, i int) (Result, error) {
		return RunSyntheticOpts(ctx, points[i], RunOptions{})
	})
	out := make([]SweepPoint, len(results))
	for i, r := range results {
		out[i] = SweepPoint{Design: points[i].Design, Rate: points[i].Rate}
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
