// Package power provides an Orion-2.0-like analytical power and area model
// for on-chip routers, links and the NoRD additions (NI bypass datapath).
// It is calibrated so that, under the paper's PARSEC-average load, the
// static/dynamic decomposition matches Figure 1:
//
//   - router static share of total router power: 17.9% at 65nm/1.2V,
//     35.4% at 45nm/1.1V, 47.7% at 32nm/1.0V (Figure 1a);
//   - at 45nm/1.0V the total router power decomposes as dynamic 62%,
//     buffer static 21%, VA static 7%, crossbar static 5%, clock static 4%,
//     SA static 2% (Figure 1b);
//
// and the power-gating breakeven time (BET) is Config-controlled, defaulting
// to the ~10 cycles reported for routers under current technology
// parameters (Section 2.2).
package power

import "fmt"

// Tech identifies a manufacturing technology point. The paper sweeps
// {65, 45, 32} nm and {1.2, 1.1, 1.0} V at 3 GHz.
type Tech struct {
	NodeNM  int     // feature size in nanometres: 65, 45 or 32
	Voltage float64 // supply voltage in volts
	FreqGHz float64 // clock frequency in GHz
}

// DefaultTech is the paper's primary evaluation point: an industrial 45nm
// process at 1.1V and 3GHz (Section 5.1).
func DefaultTech() Tech { return Tech{NodeNM: 45, Voltage: 1.1, FreqGHz: 3.0} }

// Reference calibration at 45nm / 1.0V / 3GHz under the PARSEC-average
// load implied by the paper's router-busy fractions (0.30 flits/node/cycle,
// ~2.67 average hops on a 4x4 mesh): the total router power is normalised
// to 1 W and split per Figure 1(b). The Figure 14 power curve constrains
// this point: saturation power is only ~2.75x the zero-load static floor,
// so the Figure 1(b) decomposition (dynamic 62%) must hold at a load a
// substantial fraction of saturation.
const (
	refRouterTotalW = 1.0
	// Static fractions of total router power at the reference point.
	refBufferStatic = 0.21
	refVAStatic     = 0.07
	refSAStatic     = 0.02
	refXbarStatic   = 0.05
	refClockStatic  = 0.04
	refDynamic      = 1.0 - refBufferStatic - refVAStatic - refSAStatic - refXbarStatic - refClockStatic // 0.61
	// Reference traffic used for dynamic-energy calibration.
	refLoadFlitsPerNodeCycle = 0.30
	refAvgHops               = 8.0 / 3.0
)

// Per-node scaling factors, solved so the static share hits the Figure 1(a)
// anchors exactly (see package comment). leak scales static power (beyond
// the linear voltage dependence); dyn scales switched capacitance.
var nodeFactors = map[int]struct{ leak, dyn float64 }{
	65: {leak: 0.5320, dyn: 1.3},
	45: {leak: 0.9428, dyn: 1.0},
	32: {leak: 1.1412, dyn: 0.8},
}

// StaticBreakdown is the per-component router static power in watts.
type StaticBreakdown struct {
	Buffer, VA, SA, Xbar, Clock float64
}

// Total returns the summed router static power.
func (s StaticBreakdown) Total() float64 {
	return s.Buffer + s.VA + s.SA + s.Xbar + s.Clock
}

// Model evaluates power and area at a technology point.
type Model struct {
	tech Tech
	// BreakevenCycles is the power-gating breakeven time in cycles
	// (Section 2.2; ~10 for routers). The wakeup energy overhead is
	// derived from it so that gating for exactly BreakevenCycles idle
	// cycles is energy-neutral.
	BreakevenCycles float64
	// ControllerFraction is the static power of the small non-power-gated
	// monitoring controller every PG design keeps on, as a fraction of
	// router static power (Section 3.1).
	ControllerFraction float64
	// BypassFraction is the extra always-on static power of NoRD's NI
	// bypass datapath (latch, mux/demux, forwarding control), lumped into
	// router static power for fair comparison (Section 5.1).
	BypassFraction float64

	leak, dyn float64 // resolved node factors
}

// New returns a model for the given technology point.
func New(t Tech) (*Model, error) {
	f, ok := nodeFactors[t.NodeNM]
	if !ok {
		return nil, fmt.Errorf("power: unsupported technology node %dnm (supported: 65, 45, 32)", t.NodeNM)
	}
	if t.Voltage <= 0 || t.FreqGHz <= 0 {
		return nil, fmt.Errorf("power: voltage and frequency must be positive, got %gV %gGHz", t.Voltage, t.FreqGHz)
	}
	return &Model{
		tech:               t,
		BreakevenCycles:    10,
		ControllerFraction: 0.03,
		BypassFraction:     0.02,
		leak:               f.leak,
		dyn:                f.dyn,
	}, nil
}

// MustNew is New that panics on error, for use with validated configuration.
func MustNew(t Tech) *Model {
	m, err := New(t)
	if err != nil {
		panic(err)
	}
	return m
}

// Tech returns the model's technology point.
func (m *Model) Tech() Tech { return m.tech }

// CycleSeconds returns the duration of one clock cycle.
func (m *Model) CycleSeconds() float64 { return 1e-9 / m.tech.FreqGHz }

// staticScale converts a reference static power into this technology
// point: leakage current scales with the node factor and (approximately
// linearly) with supply voltage.
func (m *Model) staticScale() float64 { return m.leak * m.tech.Voltage / 1.0 }

// dynScale converts a reference dynamic power/energy into this technology
// point: switched energy scales with capacitance (node factor) and V^2.
func (m *Model) dynScale() float64 { return m.dyn * m.tech.Voltage * m.tech.Voltage }

// RouterStatic returns the per-router static power decomposition in watts.
func (m *Model) RouterStatic() StaticBreakdown {
	s := m.staticScale()
	return StaticBreakdown{
		Buffer: refBufferStatic * refRouterTotalW * s,
		VA:     refVAStatic * refRouterTotalW * s,
		SA:     refSAStatic * refRouterTotalW * s,
		Xbar:   refXbarStatic * refRouterTotalW * s,
		Clock:  refClockStatic * refRouterTotalW * s,
	}
}

// RouterStaticW returns the total per-router static power in watts.
func (m *Model) RouterStaticW() float64 { return m.RouterStatic().Total() }

// ControllerStaticW is the always-on PG controller static power.
func (m *Model) ControllerStaticW() float64 {
	return m.RouterStaticW() * m.ControllerFraction
}

// BypassStaticW is the always-on NoRD NI-bypass static power.
func (m *Model) BypassStaticW() float64 {
	return m.RouterStaticW() * m.BypassFraction
}

// LinkStaticW returns the static power of one unidirectional mesh link
// (driver + repeaters for a 128-bit channel).
func (m *Model) LinkStaticW() float64 {
	// Calibrated so that the 48 unidirectional links of a 4x4 mesh add
	// roughly 25% of aggregate router static power, matching the modest
	// link-static band of Figure 10.
	const refLinkStatic = refRouterTotalW * (refBufferStatic + refVAStatic + refSAStatic + refXbarStatic + refClockStatic) * 0.25 * 16.0 / 48.0
	return refLinkStatic * m.staticScale()
}

// routerDynPerFlitHop is the reference energy of one flit traversing one
// powered-on router (buffer write + read, crossbar, arbitration shares).
func routerDynPerFlitHop(freqGHz float64) float64 {
	flow := refLoadFlitsPerNodeCycle * refAvgHops // flit-hops per router per cycle
	return refDynamic * refRouterTotalW / (flow * freqGHz * 1e9)
}

// Per-event dynamic energies (joules). The split of the per-hop bundle is
// buffer write 35%, buffer read 18%, crossbar 29%, VA 6%, SA 6%,
// clocking 6%.
const (
	fracBufWrite = 0.35
	fracBufRead  = 0.18
	fracXbar     = 0.29
	fracVA       = 0.06
	fracSA       = 0.06
	fracClockDyn = 0.06
)

// EBufferWrite returns the energy of writing one flit into an input buffer.
func (m *Model) EBufferWrite() float64 {
	return routerDynPerFlitHop(m.tech.FreqGHz) * fracBufWrite * m.dynScale()
}

// EBufferRead returns the energy of reading one flit from an input buffer.
func (m *Model) EBufferRead() float64 {
	return routerDynPerFlitHop(m.tech.FreqGHz) * fracBufRead * m.dynScale()
}

// EXbar returns the energy of one flit crossing the crossbar.
func (m *Model) EXbar() float64 {
	return routerDynPerFlitHop(m.tech.FreqGHz) * fracXbar * m.dynScale()
}

// EVAArb returns the energy of one VC-allocation arbitration.
func (m *Model) EVAArb() float64 {
	return routerDynPerFlitHop(m.tech.FreqGHz) * fracVA * m.dynScale()
}

// ESAArb returns the energy of one switch-allocation arbitration.
func (m *Model) ESAArb() float64 {
	return routerDynPerFlitHop(m.tech.FreqGHz) * fracSA * m.dynScale()
}

// EClockDyn returns the per-flit-hop clocking dynamic energy.
func (m *Model) EClockDyn() float64 {
	return routerDynPerFlitHop(m.tech.FreqGHz) * fracClockDyn * m.dynScale()
}

// ERouterHop returns the full per-flit router-traversal energy bundle.
func (m *Model) ERouterHop() float64 {
	return routerDynPerFlitHop(m.tech.FreqGHz) * m.dynScale()
}

// ELink returns the energy of one flit traversing one link.
func (m *Model) ELink() float64 {
	return 0.25 * m.ERouterHop()
}

// EBypassHop returns the energy of one flit being forwarded through a
// gated-off router's NI bypass (latch write, VC check, re-injection).
// The bypass datapath is a latch and two multiplexers instead of the full
// buffer-write/read, allocation and crossbar pipeline, modelled as 15% of
// a normal router hop.
func (m *Model) EBypassHop() float64 {
	return 0.15 * m.ERouterHop()
}

// WakeupEnergy returns the energy overhead of one power-gating cycle
// (sleep-signal distribution + wakeup, Figure 2b), defined so that the
// breakeven time is exactly BreakevenCycles: a router must stay off for
// BET cycles to save this much static energy.
func (m *Model) WakeupEnergy() float64 {
	return m.BreakevenCycles * m.RouterStaticW() * m.CycleSeconds()
}

// StaticShareAtReferenceLoad returns the fraction of total router power
// that is static at this technology point under the reference
// PARSEC-average load (Figure 1a).
func (m *Model) StaticShareAtReferenceLoad() float64 {
	static := m.RouterStaticW()
	flow := refLoadFlitsPerNodeCycle * refAvgHops
	// Rounded so the sum below cannot fuse with it (see Energy).
	dynamic := float64(m.ERouterHop() * flow * m.tech.FreqGHz * 1e9)
	return static / (static + dynamic)
}

// BreakdownAtReferenceLoad returns the Figure 1(b)-style decomposition of
// total router power at this point: per-component static fractions plus
// the dynamic fraction, all relative to total router power.
func (m *Model) BreakdownAtReferenceLoad() (frac map[string]float64) {
	s := m.RouterStatic()
	flow := refLoadFlitsPerNodeCycle * refAvgHops
	dynamic := float64(m.ERouterHop() * flow * m.tech.FreqGHz * 1e9)
	total := s.Total() + dynamic
	return map[string]float64{
		"buffer_static": s.Buffer / total,
		"va_static":     s.VA / total,
		"sa_static":     s.SA / total,
		"xbar_static":   s.Xbar / total,
		"clock_static":  s.Clock / total,
		"dynamic":       dynamic / total,
	}
}
