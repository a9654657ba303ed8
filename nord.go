// Package nord is a cycle-level reproduction of "NoRD: Node-Router
// Decoupling for Effective Power-gating of On-Chip Routers" (Chen &
// Pinkston, MICRO 2012).
//
// The library contains everything the paper's evaluation needs, built
// from scratch on the Go standard library:
//
//   - a 2D-mesh wormhole virtual-channel network-on-chip simulator with
//     credit-based flow control and Duato-protocol adaptive routing
//     (internal/noc);
//   - four power-gating designs: the No_PG baseline, conventional
//     power-gating (Conv_PG), conventional power-gating with early wakeup
//     (Conv_PG_OPT), and NoRD itself — the chip-wide bypass ring through
//     each node's network interface that decouples a node's ability to
//     send, receive and forward packets from its router's power state;
//   - an Orion-2.0-like power and area model calibrated to the paper's
//     Figure 1 (internal/power);
//   - synthetic traffic (uniform random, bit complement, ...) and a
//     full-system workload substrate — cores, L1s, a blocking MESI
//     directory over distributed L2 banks and corner memory controllers —
//     whose ten profiles stand in for the PARSEC 2.0 suite
//     (internal/traffic, internal/memsys);
//   - the offline Floyd-Warshall planner that selects performance-centric
//     routers for asymmetric wakeup thresholds (internal/topology);
//   - one driver per table and figure of the evaluation (internal/sim).
//
// # Quick start
//
//	res, err := nord.RunSynthetic(nord.SynthConfig{
//		Design: nord.NoRD,
//		Rate:   0.05, // flits/node/cycle, uniform random
//	})
//	if err != nil { ... }
//	fmt.Printf("latency %.1f cycles, %d wakeups\n",
//		res.AvgPacketLatency, res.Wakeups)
//
// Full-system PARSEC-like runs work the same way through RunWorkload, and
// Suite regenerates the data behind Figures 8-12.
//
// The functions here are the context-free conveniences: each is one call
// into internal/sim, which runs every kind of simulation through a single
// build → warm up → measure → collect harness (cancellable, reporting
// progress, returning failures as errors) and fans multi-run experiments
// out over one GOMAXPROCS-wide worker pool.
package nord

import (
	"context"

	"nord/internal/noc"
	"nord/internal/power"
	"nord/internal/sim"
	"nord/internal/topology"
	"nord/internal/trace"
)

// Design selects the power-gating scheme under evaluation.
type Design = noc.Design

// The four designs compared throughout the paper (Section 5.1).
const (
	// NoPG is the baseline without power-gating.
	NoPG = noc.NoPG
	// ConvPG applies conventional power-gating to routers.
	ConvPG = noc.ConvPG
	// ConvPGOpt is conventional power-gating optimised with early wakeup.
	ConvPGOpt = noc.ConvPGOpt
	// NoRD is the paper's node-router decoupling design.
	NoRD = noc.NoRD
)

// Result is the outcome of one simulation run; see the sim package for
// field documentation.
type Result = sim.Result

// SynthConfig configures a synthetic-traffic run (uniform random, bit
// complement, transpose or tornado patterns at a fixed injection rate).
type SynthConfig = sim.SynthConfig

// WorkloadConfig configures a full-system PARSEC-like run on top of the
// coherence substrate.
type WorkloadConfig = sim.WorkloadConfig

// Tech identifies a technology point for the power model (65/45/32 nm at
// 1.0-1.2 V; the paper's primary point is 45 nm, 1.1 V, 3 GHz).
type Tech = power.Tech

// RunSynthetic executes one synthetic-traffic simulation and returns its
// measurements and energy accounting.
func RunSynthetic(c SynthConfig) (Result, error) {
	return sim.RunSyntheticOpts(context.Background(), c, sim.RunOptions{})
}

// RunWorkload executes one PARSEC-like full-system simulation to
// completion, returning measurements including execution time.
func RunWorkload(c WorkloadConfig) (Result, error) {
	return sim.RunWorkloadOpts(context.Background(), c, sim.RunOptions{})
}

// Benchmarks lists the ten PARSEC-like workload names.
func Benchmarks() []string { return sim.Benchmarks() }

// Designs returns the paper's comparison set in presentation order.
func Designs() []Design { return noc.Designs() }

// PerfCentricSet returns the performance-centric router set the planner
// picks for a WxH mesh (Section 4.4; {4,5,6,7,...} style IDs).
func PerfCentricSet(w, h int) ([]int, error) { return sim.PerfCentricSet(w, h) }

// DefaultTech is the paper's primary technology point.
func DefaultTech() Tech { return power.DefaultTech() }

// NewPowerModel builds the Orion-like power/area model at a technology
// point, for custom energy analyses.
func NewPowerModel(t Tech) (*power.Model, error) { return power.New(t) }

// TradeoffPoint re-exports the planner's Figure 6 curve points.
type TradeoffPoint = topology.TradeoffPoint

// Suite runs the full PARSEC-like suite over all four designs at the
// given instruction-count scale (1.0 = 60k instructions per core) and
// returns per-figure views (Figures 8-12). The (benchmark, design) cells
// run concurrently, one per CPU core (GOMAXPROCS=1 runs them in order).
// progress may be nil; it is called once per cell as the cell starts, one
// call at a time, from whichever goroutine runs the cell.
func Suite(scale float64, seed int64, progress func(string)) (*SuiteResult, error) {
	return sim.RunSuite(context.Background(), scale, seed, progress)
}

// SuiteResult holds the PARSEC-like suite measurements and derives the
// Figure 8-12 tables.
type SuiteResult = sim.SuiteResult

// Trace is a recorded packet-injection trace for trace-driven replays.
type Trace = trace.Trace

// TraceConfig configures a trace replay run.
type TraceConfig = sim.TraceConfig

// RecordWorkloadTrace runs a full-system workload once and returns the
// trace of every packet it injected alongside the run's measurements.
// Replay it with RunTrace/ReplayTrace to compare designs on identical
// traffic without re-simulating the memory system.
func RecordWorkloadTrace(c WorkloadConfig) (*Trace, Result, error) {
	return sim.RecordWorkloadTrace(c)
}

// RunTrace replays a saved trace file onto the configured design.
func RunTrace(c TraceConfig) (Result, error) {
	t, err := trace.Load(c.Path)
	if err != nil {
		return Result{}, err
	}
	return sim.ReplayTrace(c, t)
}

// ReplayTrace replays an in-memory trace onto the configured design.
func ReplayTrace(c TraceConfig, t *Trace) (Result, error) { return sim.ReplayTrace(c, t) }

// LoadTrace and (*Trace).Save round-trip traces on disk (.gz supported).
func LoadTrace(path string) (*Trace, error) { return trace.Load(path) }
