// Package noc implements the cycle-level on-chip network: canonical
// 4-stage (RC, VA, SA, ST + LT) wormhole virtual-channel routers on a 2D
// mesh with credit-based flow control, adaptive routing with Duato-protocol
// escape resources, and the four power-gating designs the paper compares
// (No_PG, Conv_PG, Conv_PG_OPT and NoRD with its decoupling bypass ring).
package noc

import (
	"fmt"

	"nord/internal/topology"
)

// Params configures a network. The zero value is not usable; start from
// DefaultParams.
type Params struct {
	// Width, Height give the router-grid dimensions (Table 1: 4x4 and
	// 8x8). For the concentrated mesh this is the router grid; the
	// terminal grid is twice as large in each dimension.
	Width, Height int
	// Topology selects the network topology: the zero value is the 2D
	// mesh; KindTorus adds wraparound links (with a second escape VC for
	// the dateline discipline); KindCMesh concentrates 4 terminals per
	// router behind a widened local port.
	Topology topology.Kind
	// Classes is the number of protocol classes (1 for synthetic traffic,
	// 2 for the coherence substrate: requests and responses).
	Classes int
	// VCsPerClass is the number of virtual channels per protocol class
	// (Table 1: 4). Within a class, escape VCs come first: 1 for
	// conventional designs (XY escape), 2 for NoRD (ring escape with a
	// dateline); the remainder are adaptive.
	VCsPerClass int
	// BufferDepth is the input-buffer depth in flits (Table 1: 5).
	BufferDepth int
	// Design selects the power-gating scheme.
	Design Design
	// WakeupLatency is the cycles needed to power a router back on
	// (Section 5.1: 12 cycles = 4ns at 3GHz).
	WakeupLatency int
	// GateIdleCycles is the consecutive empty cycles a router requires
	// before gating off, covering flits in the ST and LT stages of
	// neighbors (the IC signal of Section 4.3: 2 cycles).
	GateIdleCycles int
	// MisrouteCap bounds the non-minimal hops a NoRD packet may take on
	// adaptive resources before being forced onto the escape ring
	// (Section 4.2's livelock bound).
	MisrouteCap int
	// ThresholdPerf / ThresholdPower are the asymmetric wakeup thresholds
	// (Section 6.1 picks 1 for performance-centric routers and 3 for
	// power-centric routers on the paper's metric; this implementation's
	// blocked-request metric calibrates empirically to 1 and 6 — the same
	// methodology, re-run against this simulator, per Section 6.1's
	// "determined empirically").
	ThresholdPerf, ThresholdPower int
	// PerfCentric lists the performance-centric router IDs (Section 4.4;
	// the Figure 6 planner picks {4,5,6,7,13,14} for the 4x4 mesh). Nil
	// means all routers are power-centric.
	PerfCentric []int
	// ForcedOff keeps every router asleep regardless of load, the
	// Figure 7 methodology for measuring pure bypass-ring throughput.
	ForcedOff bool
	// InjectQueueDepth is the per-class NI injection queue capacity in
	// packets; injection fails (backpressure) when full.
	InjectQueueDepth int
	// RingOrder optionally overrides the bypass-ring node sequence
	// (must be a Hamiltonian cycle); nil selects the comb serpentine.
	RingOrder []int
	// AggressiveBypass enables the Section 6.8 optimisation: when a flit
	// arriving at a gated-off router's Bypass Inport can proceed
	// immediately (downstream VC and credit available, no conflicting
	// traffic at the NI), it is forwarded combinationally from Bypass
	// Inport to Bypass Outport in a single cycle instead of the 2-cycle
	// latch pipeline. On conflict it falls back to the normal bypass.
	AggressiveBypass bool
	// TwoStageRouter shortens the powered-on pipeline from the canonical
	// 4 stages to 2 (look-ahead routing folds RC into VA; speculative SA
	// folds ST into SA), the Section 6.8 baseline variant. Contention
	// makes speculation fail naturally, adding cycles back. A shorter
	// pipeline also hides fewer wakeup cycles (EarlyWakeupCycles).
	TwoStageRouter bool
	// DynamicClassify enables the Section 4.4 extension the paper leaves
	// as future work: instead of a fixed planner-chosen
	// performance-centric class, routers are re-ranked every
	// ReclassifyPeriod cycles by observed demand, and the busiest 3N/8
	// get the performance-centric thresholds.
	DynamicClassify bool
	// ReclassifyPeriod is the re-ranking interval in cycles for
	// DynamicClassify (default 2048).
	ReclassifyPeriod int
	// WatchdogLimit is the no-progress horizon (cycles) after which the
	// deadlock watchdog raises a DeadlockError; 0 selects the default
	// (50k cycles). Fault-injection tests lower it so partitioned runs
	// fail fast.
	WatchdogLimit int
	// Parallelism selects the sharded parallel tick kernel: the mesh (and
	// the NoRD bypass ring) is partitioned into this many contiguous
	// spatial domains, each ticked by a pinned worker goroutine, with
	// cross-shard link/credit traffic committed at deterministic phase
	// barriers in fixed (shard, source, port) order. 0 and 1 both select
	// the serial kernel, which is the single-shard special case of the
	// same code path; values above the node count are clamped. Results
	// are bit-identical across all parallelism levels (the golden
	// TestParallelMatchesSerial equivalence).
	Parallelism int
}

// WakeupWindow is the sliding window (cycles) of the NoRD VC-request
// wakeup metric (Section 4.3: 10).
const WakeupWindow = 10

// EarlyWakeupCycles is the wakeup latency hidden by early WU generation
// in Conv_PG_OPT on the canonical 4-stage router (Section 5.1: 3); a
// TwoStageRouter hides one (Section 6.8).
const EarlyWakeupCycles = 3

// DefaultParams returns the paper's Table 1 configuration for a given
// design on a 4x4 mesh with one protocol class.
func DefaultParams(d Design) Params {
	return Params{
		Width: 4, Height: 4,
		Classes:          1,
		VCsPerClass:      4,
		BufferDepth:      5,
		Design:           d,
		WakeupLatency:    12,
		GateIdleCycles:   2,
		MisrouteCap:      2,
		ThresholdPerf:    1,
		ThresholdPower:   6,
		InjectQueueDepth: 16,
		ReclassifyPeriod: 2048,
	}
}

// MaxGridDim caps each router-grid dimension: a typo'd 10000x10000
// request would otherwise try to materialise ~10^8 routers before any
// simulation work reveals the mistake.
const MaxGridDim = 256

// MaxVCsPerPort is the most VCs (classes x VCs per class) a router port
// can carry: the per-phase VC occupancy masks hold one bit per VC.
const MaxVCsPerPort = 64

// MinVCs returns the fewest VCs per class a design can run with on a
// topology: its escape VCs (the ring dateline pair for NoRD, the torus
// dateline pair for conventional designs) plus one adaptive VC. Every
// layer that bounds or repairs a VC count asks here.
func MinVCs(d Design, kind topology.Kind) int {
	p := Params{Design: d, Topology: kind}
	return p.escapeVCs() + 1
}

// Validate checks parameter consistency.
func (p *Params) Validate() error {
	if p.Design < 0 || int(p.Design) >= NumDesigns {
		return fmt.Errorf("noc: unknown design %v", p.Design)
	}
	row := p.Design.row()
	if p.Width < 2 || p.Height < 2 {
		return fmt.Errorf("noc: router grid must be at least 2x2, got %dx%d", p.Width, p.Height)
	}
	if p.Width > MaxGridDim || p.Height > MaxGridDim {
		return fmt.Errorf("noc: grid %dx%d exceeds the %dx%d limit", p.Width, p.Height, MaxGridDim, MaxGridDim)
	}
	if _, err := topology.New(p.Topology, p.Width, p.Height); err != nil {
		return err
	}
	if row.blocks.Bypass && p.RingOrder == nil && !topology.HasRing(p.Topology, p.Width, p.Height) {
		return fmt.Errorf("noc: no Hamiltonian bypass ring exists for odd %dx%d %v", p.Width, p.Height, p.Topology)
	}
	if p.Classes < 1 {
		return fmt.Errorf("noc: need at least one protocol class, got %d", p.Classes)
	}
	if minVCs := MinVCs(p.Design, p.Topology); p.VCsPerClass < minVCs {
		return fmt.Errorf("noc: design %v on %v needs at least %d VCs per class, got %d",
			p.Design, p.Topology, minVCs, p.VCsPerClass)
	}
	if p.vcsPerPort() > MaxVCsPerPort {
		return fmt.Errorf("noc: at most %d VCs per port supported, got %d", MaxVCsPerPort, p.vcsPerPort())
	}
	if p.BufferDepth < 1 {
		return fmt.Errorf("noc: buffer depth must be positive, got %d", p.BufferDepth)
	}
	if row.blocks.PGSwitch && p.WakeupLatency < 1 {
		return fmt.Errorf("noc: wakeup latency must be positive, got %d", p.WakeupLatency)
	}
	if p.GateIdleCycles < 0 || p.MisrouteCap < 0 {
		return fmt.Errorf("noc: negative pipeline parameter")
	}
	if row.wake == wakeAtNI && (p.ThresholdPerf < 1 || p.ThresholdPower < 1) {
		return fmt.Errorf("noc: NoRD wakeup thresholds must be positive")
	}
	if p.InjectQueueDepth < 1 {
		return fmt.Errorf("noc: injection queue depth must be positive, got %d", p.InjectQueueDepth)
	}
	for _, id := range p.PerfCentric {
		if id < 0 || id >= p.Width*p.Height {
			return fmt.Errorf("noc: performance-centric router %d out of range", id)
		}
	}
	if p.DynamicClassify && p.ReclassifyPeriod < 1 {
		return fmt.Errorf("noc: dynamic classification needs a positive reclassify period")
	}
	if p.WatchdogLimit < 0 {
		return fmt.Errorf("noc: watchdog limit must be non-negative, got %d", p.WatchdogLimit)
	}
	if p.Parallelism < 0 {
		return fmt.Errorf("noc: parallelism must be non-negative, got %d", p.Parallelism)
	}
	return nil
}

// vcsPerPort returns the total number of VCs at each router port.
func (p *Params) vcsPerPort() int { return p.Classes * p.VCsPerClass }

// escapeVCs returns the number of escape VCs per class. A design with the
// bypass escapes onto the ring's dateline pair; the others need one XY
// escape VC on a mesh (or cmesh) and a dateline pair on a torus, whose
// wrap links close rings the single-VC Duato escape cannot break.
func (p *Params) escapeVCs() int {
	if p.Design.Blocks().Bypass || p.Topology == topology.KindTorus {
		return 2
	}
	return 1
}

// vcBase returns the first VC index of class c.
func (p *Params) vcBase(c int) int { return c * p.VCsPerClass }

// NumNodes returns the router count.
func (p *Params) NumNodes() int { return p.Width * p.Height }
