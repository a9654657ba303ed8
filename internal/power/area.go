package power

// Area model (Section 6.8). Only relative areas matter for the paper's
// claims: a well-designed power-gating block costs 4-10% of the gated
// block; Conv_PG_OPT adds small early-wakeup monitoring; NoRD adds the
// bypass datapath (NI latch, mux/demux, forwarding control) for ~3.1%
// over Conv_PG_OPT.

// AreaBreakdown is the per-router area decomposition in mm^2.
type AreaBreakdown struct {
	Buffers    float64
	Crossbar   float64
	Allocators float64
	Other      float64 // pipeline latches, control, local wiring
	PGSwitch   float64 // sleep transistors + sleep-signal distribution
	EarlyWU    float64 // early-wakeup generation/monitoring
	Bypass     float64 // NoRD bypass datapath in router + NI
}

// Total returns the summed router area.
func (a AreaBreakdown) Total() float64 {
	return a.Buffers + a.Crossbar + a.Allocators + a.Other + a.PGSwitch + a.EarlyWU + a.Bypass
}

// Reference router area at 45nm for a 5-port, 128-bit, 4-VC, 5-flit-deep
// wormhole router (Orion-2.0-like magnitude).
const refRouterAreaMM2 = 0.38

// Blocks is the hardware a power-gating design adds to the baseline
// router, in the order the paper's designs stack it: the switch, then
// early wakeup, then the bypass. It is what the area model (RouterArea)
// and the energy model (Counts.Blocks) price; which design carries which
// block is noc's design table, not this package's business.
type Blocks struct {
	// PGSwitch: sleep transistors plus the always-on controller that
	// monitors a gated-off router.
	PGSwitch bool
	// EarlyWU: early-wakeup generation and monitoring.
	EarlyWU bool
	// Bypass: the never-gated NoRD bypass datapath in router and NI.
	Bypass bool
}

// RouterArea returns the per-router area of the baseline router plus
// the given blocks at this technology point. Area scales quadratically
// with feature size relative to 45nm.
func (m *Model) RouterArea(b Blocks) AreaBreakdown {
	scale := float64(m.tech.NodeNM) / 45.0
	base := refRouterAreaMM2 * scale * scale
	a := AreaBreakdown{
		Buffers:    0.40 * base,
		Crossbar:   0.30 * base,
		Allocators: 0.10 * base,
		Other:      0.20 * base,
	}
	if b.PGSwitch {
		a.PGSwitch = 0.060 * base
	}
	if b.EarlyWU {
		a.EarlyWU = 0.006 * base
	}
	if b.Bypass {
		// Bypass datapath: NI latch + demultiplexer before the ejection
		// queue, multiplexer after the injection queue, the two router
		// datapaths and control; 3.1% of a router with the other two
		// blocks (Conv_PG_OPT's).
		a.Bypass = 0.031 * base * (1 + 0.060 + 0.006)
	}
	return a
}

// RouterAreaFor returns the per-router area for a non-reference
// microarchitecture: buffer area scales linearly with the total
// buffering per port (VCs x depth, reference 4 VCs x 5 flits), and
// allocator area with the number of VCs arbitrated per port; the
// crossbar, pipeline latches and control are port-bound and keep their
// reference size. The power-gating switch is resized proportionally to
// the gated block it powers, and the early-wakeup and bypass adders keep
// their fixed proportions. Non-positive arguments select the reference
// values, so RouterAreaFor(b, 0, 0) == RouterArea(b).
func (m *Model) RouterAreaFor(b Blocks, vcsPerPort, bufferDepth int) AreaBreakdown {
	a := m.RouterArea(b)
	refGated := a.Buffers + a.Crossbar + a.Allocators + a.Other
	vcs, depth := 4.0, 5.0
	if vcsPerPort > 0 {
		vcs = float64(vcsPerPort)
	}
	if bufferDepth > 0 {
		depth = float64(bufferDepth)
	}
	// Rounded before the sum below, so no architecture fuses them into it.
	a.Buffers = float64(a.Buffers * (vcs * depth / (4 * 5)))
	a.Allocators = float64(a.Allocators * (vcs / 4))
	gated := a.Buffers + a.Crossbar + a.Allocators + a.Other
	a.PGSwitch *= gated / refGated
	return a
}
