package power

import "nord/internal/obs"

// Events is the one record of the datapath events the model prices. Each
// router counts the events it and its NI see into its own copy, the
// collector's copy is the sum of those (Add), and a window of a run is the
// difference of two cumulative copies (Sub).
type Events struct {
	// BufWrites counts flits written into an input buffer.
	BufWrites uint64
	// SAGrants counts switch grants. Each is one SA arbitration, one
	// buffer read, one crossbar traversal and one clocked flit hop.
	SAGrants uint64
	// VAGrants counts output VCs (or Local ejections) granted.
	VAGrants uint64
	// LinkTraversals counts flits sent onto an inter-router link.
	LinkTraversals uint64
	// BypassHops counts flits forwarded through a gated-off router's NI
	// bypass, BypassInjections local flits injected over the bypass
	// outport and BypassEjections flits sunk at the local node off the
	// bypass latch.
	BypassHops, BypassInjections, BypassEjections uint64
	// LocalFlits counts flits delivered over a concentrated router's
	// NI-local path (terminal-to-terminal traffic that never enters the
	// network); 0 on concentration-1 topologies.
	LocalFlits uint64
	// Wakes counts off->on transitions by the signal that asserted the
	// wakeup (indexed by obs.Cause; CauseNone stays 0). Each carries the
	// sleep-signal distribution + wakeup energy overhead.
	Wakes [obs.CauseWatchdog + 1]uint64
	// OnCycles, OffCycles and WakingCycles are the cycles spent powered
	// on, gated off and waking; a waking router burns full static power.
	OnCycles, OffCycles, WakingCycles uint64
}

// Add adds o's counts to e: the sum over routers.
func (e *Events) Add(o *Events) {
	e.BufWrites += o.BufWrites
	e.SAGrants += o.SAGrants
	e.VAGrants += o.VAGrants
	e.LinkTraversals += o.LinkTraversals
	e.BypassHops += o.BypassHops
	e.BypassInjections += o.BypassInjections
	e.BypassEjections += o.BypassEjections
	e.LocalFlits += o.LocalFlits
	for i, w := range o.Wakes {
		e.Wakes[i] += w
	}
	e.OnCycles += o.OnCycles
	e.OffCycles += o.OffCycles
	e.WakingCycles += o.WakingCycles
}

// Sub returns the events between an earlier cumulative copy o and e.
func (e Events) Sub(o Events) Events {
	e.BufWrites -= o.BufWrites
	e.SAGrants -= o.SAGrants
	e.VAGrants -= o.VAGrants
	e.LinkTraversals -= o.LinkTraversals
	e.BypassHops -= o.BypassHops
	e.BypassInjections -= o.BypassInjections
	e.BypassEjections -= o.BypassEjections
	e.LocalFlits -= o.LocalFlits
	for i, w := range o.Wakes {
		e.Wakes[i] -= w
	}
	e.OnCycles -= o.OnCycles
	e.OffCycles -= o.OffCycles
	e.WakingCycles -= o.WakingCycles
	return e
}

// Wakeups returns the off->on transitions, summed over causes.
func (e Events) Wakeups() (sum uint64) {
	for _, w := range e.Wakes {
		sum += w
	}
	return sum
}

// OffFraction returns the fraction of router-cycles spent gated off.
func (e Events) OffFraction() float64 {
	total := e.OnCycles + e.OffCycles + e.WakingCycles
	if total == 0 {
		return 0
	}
	return float64(e.OffCycles) / float64(total)
}

// Counts is the model's input: the priced events of an interval, summed
// over the NoC, with the population and hardware they are priced on.
type Counts struct {
	Events
	// Cycles is the length of the interval.
	Cycles uint64
	// Routers and Links are the population sizes (links counted as
	// unidirectional channels).
	Routers, Links int

	// LinkLengthFactor scales link energy (static and dynamic) for
	// topologies whose channels span more than one mesh tile pitch (2.0
	// for the folded torus and the concentrated mesh). The zero value is
	// treated as 1.0, the plain-mesh pitch.
	LinkLengthFactor float64

	// Blocks selects which always-on adders apply: the PG switch's
	// controller leaks while its router is off, the bypass all the time.
	Blocks Blocks
}

// linkLength returns the effective link-length scale (zero value = 1.0).
func (c Counts) linkLength() float64 {
	if c.LinkLengthFactor == 0 {
		return 1.0
	}
	return c.LinkLengthFactor
}

// Breakdown is the NoC energy decomposition in joules, mirroring the bands
// of Figure 10 (router static, router dynamic, link static, link dynamic,
// power-gating overhead).
type Breakdown struct {
	RouterStatic  float64
	RouterDynamic float64
	LinkStatic    float64
	LinkDynamic   float64
	PGOverhead    float64
}

// Total returns the summed NoC energy.
func (b Breakdown) Total() float64 {
	return b.RouterStatic + b.RouterDynamic + b.LinkStatic + b.LinkDynamic + b.PGOverhead
}

// Energy converts event counts into the NoC energy breakdown.
func (m *Model) Energy(c Counts) Breakdown {
	cyc := m.CycleSeconds()
	var b Breakdown

	// Router static: full static while on (or waking); while gated off
	// only the non-gated controller (and NoRD's bypass datapath) leak.
	b.RouterStatic = float64(c.OnCycles+c.WakingCycles) * m.RouterStaticW() * cyc
	if c.Blocks.PGSwitch {
		b.RouterStatic += float64(float64(c.OffCycles) * m.ControllerStaticW() * cyc)
	}
	if c.Blocks.Bypass {
		// The bypass datapath is never power-gated: it leaks for the
		// whole interval on every router.
		b.RouterStatic += float64(float64(c.Cycles) * float64(c.Routers) * m.BypassStaticW() * cyc)
	}

	// Router dynamic. Local-path flits of a concentrated router are
	// charged like bypass hops: a latch-to-latch hop that skips the full
	// buffered pipeline. A switch grant is also the buffer read, the
	// crossbar traversal and the clocked flit hop.
	// float64(…) rounds each product before the sum: without it gc fuses
	// multiply-adds on arm64 and others, and the last bits would depend
	// on the host (scripts/fmacheck.sh).
	b.RouterDynamic = float64(float64(c.BufWrites)*m.EBufferWrite()) +
		float64(float64(c.SAGrants)*m.EBufferRead()) +
		float64(float64(c.SAGrants)*m.EXbar()) +
		float64(float64(c.VAGrants)*m.EVAArb()) +
		float64(float64(c.SAGrants)*m.ESAArb()) +
		float64(float64(c.SAGrants)*m.EClockDyn()) +
		float64(float64(c.BypassHops+c.BypassInjections+c.BypassEjections+c.LocalFlits)*m.EBypassHop())

	// Links: wire capacitance and leakage scale with the physical span,
	// so longer channels (folded torus, concentrated mesh) cost
	// proportionally more per traversal and per idle cycle.
	ll := c.linkLength()
	b.LinkStatic = float64(c.Cycles) * float64(c.Links) * m.LinkStaticW() * cyc * ll
	b.LinkDynamic = float64(c.LinkTraversals) * m.ELink() * ll

	// Power-gating overhead.
	b.PGOverhead = float64(c.Wakeups()) * m.WakeupEnergy()
	return b
}

// AvgPowerW converts a breakdown over the counted interval into average
// NoC power in watts.
func (m *Model) AvgPowerW(c Counts, b Breakdown) float64 {
	t := float64(c.Cycles) * m.CycleSeconds()
	if t == 0 {
		return 0
	}
	return b.Total() / t
}
