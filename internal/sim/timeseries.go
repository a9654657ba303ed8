package sim

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"nord/internal/power"
)

// PowerSample is one window of a power time series.
type PowerSample struct {
	CycleStart  uint64
	PowerW      float64
	OffFraction float64
	Throughput  float64 // delivered flits/node/cycle in the window
}

// PowerTimeSeries runs a synthetic simulation and samples NoC power,
// gated-off fraction and delivered throughput every period measured
// cycles, exposing the temporal dynamics of power gating (bursts waking
// routers, quiet stretches powering them down). It is RunSyntheticOpts
// with a reader attached: ctx, opt, the Result and the error mean what
// they mean there, and a run that fails returns the samples taken so far.
func PowerTimeSeries(ctx context.Context, c SynthConfig, opt RunOptions, period int) ([]PowerSample, Result, error) {
	if period < 1 {
		return nil, Result{}, fmt.Errorf("sim: sample period must be positive, got %d", period)
	}
	var samples []PowerSample
	// The collectors count from zero when the measurement begins.
	var prev power.Counts
	var prevFlits uint64
	res, err := synthRun(ctx, c, opt, &tap{every: period, read: func(s *session) {
		net, model := s.net, s.model
		col := net.Collector()
		cur := col.PowerCounts(net.Topo().N(), net.NumLinks(), net.Params().Design.Blocks())
		cur.LinkLengthFactor = net.Topo().LinkLengthFactor()
		delta := diffCounts(cur, prev)
		samples = append(samples, PowerSample{
			CycleStart:  net.Cycle() - uint64(period),
			PowerW:      model.AvgPowerW(delta, model.Energy(delta)),
			OffFraction: offFrac(delta),
			// Per terminal: == per router except on cmesh.
			Throughput: float64(col.FlitsDelivered-prevFlits) / float64(period) / float64(net.Mesh().N()),
		})
		prev, prevFlits = cur, col.FlitsDelivered
	}})
	return samples, res, err
}

// diffCounts subtracts two cumulative count snapshots into a window.
func diffCounts(cur, prev power.Counts) power.Counts {
	d := cur
	d.Cycles = cur.Cycles - prev.Cycles
	d.RouterOnCycles = cur.RouterOnCycles - prev.RouterOnCycles
	d.RouterOffCycles = cur.RouterOffCycles - prev.RouterOffCycles
	d.Wakeups = cur.Wakeups - prev.Wakeups
	d.BufWrites = cur.BufWrites - prev.BufWrites
	d.BufReads = cur.BufReads - prev.BufReads
	d.XbarTraversals = cur.XbarTraversals - prev.XbarTraversals
	d.VAArbs = cur.VAArbs - prev.VAArbs
	d.SAArbs = cur.SAArbs - prev.SAArbs
	d.ClockedFlitHops = cur.ClockedFlitHops - prev.ClockedFlitHops
	d.LinkTraversals = cur.LinkTraversals - prev.LinkTraversals
	d.BypassHops = cur.BypassHops - prev.BypassHops
	d.BypassInjections = cur.BypassInjections - prev.BypassInjections
	d.BypassEjections = cur.BypassEjections - prev.BypassEjections
	d.LocalFlits = cur.LocalFlits - prev.LocalFlits
	return d
}

func offFrac(c power.Counts) float64 {
	total := c.RouterOnCycles + c.RouterOffCycles
	if total == 0 {
		return 0
	}
	return float64(c.RouterOffCycles) / float64(total)
}

// WritePowerSeriesCSV emits a power time series as CSV.
func WritePowerSeriesCSV(w io.Writer, samples []PowerSample) error {
	if _, err := fmt.Fprintln(w, "cycle_start,noc_power_w,off_fraction,throughput_fpc"); err != nil {
		return err
	}
	for _, s := range samples {
		if _, err := fmt.Fprintf(w, "%d,%s,%s,%s\n",
			s.CycleStart,
			strconv.FormatFloat(s.PowerW, 'f', 4, 64),
			strconv.FormatFloat(s.OffFraction, 'f', 4, 64),
			strconv.FormatFloat(s.Throughput, 'f', 5, 64)); err != nil {
			return err
		}
	}
	return nil
}

// WatchStates runs a synthetic simulation and renders the mesh's router
// power states every period cycles as ASCII frames ('#' on, '.' off,
// '~' waking; performance-centric routers are uppercase O when on),
// visualising how traffic wakes regions of the chip and quiet stretches
// power them down. Frames start at cycle 0 — the cold network waking up
// is part of the picture — so c.Warmup and c.Measure are ignored; ctx,
// opt, the Result and the error mean what they mean for RunSyntheticOpts.
func WatchStates(ctx context.Context, c SynthConfig, opt RunOptions, period, frames int, w io.Writer) (Result, error) {
	if period < 1 || frames < 1 {
		return Result{}, fmt.Errorf("sim: watch needs positive period and frame count")
	}
	c.Warmup, c.Measure = ZeroWarmup, period*frames
	return synthRun(ctx, c, opt, &tap{every: period, read: func(s *session) {
		net := s.net
		perf := map[int]bool{}
		for _, id := range net.PerfCentricNow() {
			perf[id] = true
		}
		p := net.Params()
		fmt.Fprintf(w, "cycle %d (in flight %d)\n", net.Cycle(), net.InFlight())
		for y := 0; y < p.Height; y++ {
			for x := 0; x < p.Width; x++ {
				id := y*p.Width + x
				glyph := "#"
				switch net.RouterStateName(id) {
				case "off":
					glyph = "."
				case "waking":
					glyph = "~"
				default:
					if perf[id] {
						glyph = "O"
					}
				}
				fmt.Fprintf(w, " %s", glyph)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}})
}
