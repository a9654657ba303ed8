package sim

import (
	"context"
	"fmt"
	"strings"

	"nord/internal/fault"
	"nord/internal/noc"
	"nord/internal/topology"
	"nord/internal/traffic"
)

// DegradationConfig parameterises the graceful-degradation sweep: the
// same seeded traffic is run with 0..MaxFails permanently failed routers
// (plus optional transient faults) for each design, tabulating how
// delivery rate and latency degrade. NoRD keeps every node reachable over
// the bypass ring; conventional designs partition and their cells record
// a structured DeadlockError instead of crashing the sweep.
type DegradationConfig struct {
	Width, Height int
	// Topology selects the interconnect ("" = mesh, "torus", "cmesh");
	// Width and Height always size the router grid.
	Topology string
	Pattern  string
	Rate     float64
	Measure  int
	Seed     int64
	// MaxFails is the largest number of hard-failed routers (cells run
	// 0..MaxFails inclusive).
	MaxFails int
	// StuckOff / DropWakeups / CorruptLinks add that many transient
	// events to every non-zero-fault cell.
	StuckOff     int
	DropWakeups  int
	CorruptLinks int
	// Designs defaults to the full comparison set.
	Designs []noc.Design
	// WatchdogLimit lowers the deadlock horizon so partitioned cells fail
	// fast (0 = 5000 cycles; partitions stall completely, so a short
	// horizon is safe).
	WatchdogLimit int
}

func (c *DegradationConfig) fill() {
	if c.Width == 0 {
		c.Width = 8
	}
	if c.Height == 0 {
		c.Height = 8
	}
	if c.Pattern == "" {
		c.Pattern = "uniform"
	}
	if c.Rate == 0 {
		c.Rate = 0.05
	}
	if c.Measure == 0 {
		c.Measure = 30_000
	}
	if c.MaxFails == 0 {
		c.MaxFails = 6
	}
	if len(c.Designs) == 0 {
		c.Designs = noc.Designs()
	}
	if c.WatchdogLimit == 0 {
		c.WatchdogLimit = 5_000
	}
}

// DegradationPoint is one (design, hard-fail count) cell of the sweep.
type DegradationPoint struct {
	Design    noc.Design
	HardFails int
	// Delivered is the fraction of unique injected payloads delivered
	// (retransmissions folded in).
	Delivered   float64
	AvgLatency  float64
	Retransmits uint64
	Watchdog    uint64 // PG-watchdog forced wakeups
	RoutersLost int
	PacketsLost uint64
	// Err is the structured failure of cells that could not complete
	// (e.g. conventional designs partitioned by the failed routers).
	Err string
}

// DegradationSweep runs the graceful-degradation experiment, one pool
// cell per (design, fail count). A cell that fails (partition, deadlock,
// traffic that never drains) records its error and the sweep continues,
// while configuration errors — which would fail every cell identically —
// abort the sweep upfront.
// The same Seed produces the same fault schedules, so designs are
// compared under identical fault sequences.
func DegradationSweep(c DegradationConfig) ([]DegradationPoint, error) {
	c.fill()
	if _, err := traffic.PatternByName(c.Pattern); err != nil {
		return nil, err
	}
	// An unknown topology would fail every cell identically; reject upfront.
	if _, err := topology.KindByName(c.Topology); err != nil {
		return nil, err
	}
	if c.MaxFails < 0 {
		return nil, fmt.Errorf("sim: negative MaxFails %d", c.MaxFails)
	}
	perDesign := c.MaxFails + 1 // cells 0..MaxFails hard-failed routers
	at := func(i int) (noc.Design, int) { return c.Designs[i/perDesign], i % perDesign }
	results, errs := RunCells(context.Background(), len(c.Designs)*perDesign, func(ctx context.Context, i int) (Result, error) {
		d, fails := at(i)
		fc := &fault.Config{Seed: c.Seed, HardFails: fails}
		if fails > 0 {
			fc.StuckOff = c.StuckOff
			fc.DropWakeups = c.DropWakeups
			fc.CorruptLinks = c.CorruptLinks
		}
		return RunSyntheticOpts(ctx, SynthConfig{
			Design: d, Width: c.Width, Height: c.Height,
			Topology: c.Topology,
			Pattern:  c.Pattern, Rate: c.Rate, Measure: c.Measure,
			Seed: c.Seed, Faults: fc, WatchdogLimit: c.WatchdogLimit,
		}, RunOptions{})
	})
	out := make([]DegradationPoint, len(results))
	for i, r := range results {
		d, fails := at(i)
		pt := DegradationPoint{Design: d, HardFails: fails, AvgLatency: r.AvgPacketLatency}
		if fr := r.Fault; fr != nil {
			pt.Delivered = fr.DeliveredFraction()
			pt.Retransmits = fr.Retransmits
			pt.Watchdog = fr.WatchdogWakeups
			pt.RoutersLost = fr.RoutersLost
			pt.PacketsLost = fr.PacketsLost
		}
		if errs[i] != nil {
			pt.Err = errs[i].Error()
		}
		out[i] = pt
	}
	return out, nil
}

// FormatDegradation renders the sweep as a text table: one block per
// design, delivery rate and latency against the number of failed routers.
func FormatDegradation(pts []DegradationPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %6s %10s %10s %8s %9s %6s  %s\n",
		"design", "fails", "delivered", "latency", "retx", "watchdog", "lost", "status")
	for _, p := range pts {
		status := "ok"
		if p.Err != "" {
			// First line of the (possibly multi-line) deadlock report.
			status = strings.SplitN(p.Err, "\n", 2)[0]
		}
		fmt.Fprintf(&b, "%-12s %6d %9.2f%% %10.2f %8d %9d %6d  %s\n",
			p.Design, p.HardFails, 100*p.Delivered, p.AvgLatency,
			p.Retransmits, p.Watchdog, p.PacketsLost, status)
	}
	return b.String()
}
