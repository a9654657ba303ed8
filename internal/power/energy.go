package power

// Counts aggregates the raw event counts a simulation produces; the model
// converts them into energy. All counts are totals across the whole NoC
// over the measured interval.
type Counts struct {
	// Cycles is the length of the measured interval.
	Cycles uint64
	// Routers and Links are the population sizes (links counted as
	// unidirectional channels).
	Routers, Links int

	// RouterOnCycles is the sum over routers of cycles spent powered on
	// (including waking cycles, which still burn full static power).
	RouterOnCycles uint64
	// RouterOffCycles is the sum over routers of cycles spent gated off.
	RouterOffCycles uint64

	// Wakeups is the number of off->on transitions (each carrying the
	// sleep-signal distribution + wakeup energy overhead).
	Wakeups uint64

	// Dynamic event counts.
	BufWrites, BufReads uint64
	XbarTraversals      uint64
	VAArbs, SAArbs      uint64
	ClockedFlitHops     uint64
	LinkTraversals      uint64
	BypassHops          uint64 // flits forwarded through a gated-off NI bypass
	BypassInjections    uint64 // local flits injected via the bypass outport
	BypassEjections     uint64 // flits sunk at the local node via the bypass latch
	LocalFlits          uint64 // flits crossing a concentrated router's NI-local path

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
	b.RouterStatic = float64(c.RouterOnCycles) * m.RouterStaticW() * cyc
	if c.Blocks.PGSwitch {
		b.RouterStatic += float64(c.RouterOffCycles) * m.ControllerStaticW() * cyc
	}
	if c.Blocks.Bypass {
		// The bypass datapath is never power-gated: it leaks for the
		// whole interval on every router.
		b.RouterStatic += float64(c.Cycles) * float64(c.Routers) * m.BypassStaticW() * cyc
	}

	// Router dynamic. Local-path flits of a concentrated router are
	// charged like bypass hops: a latch-to-latch hop that skips the full
	// buffered pipeline.
	b.RouterDynamic = float64(c.BufWrites)*m.EBufferWrite() +
		float64(c.BufReads)*m.EBufferRead() +
		float64(c.XbarTraversals)*m.EXbar() +
		float64(c.VAArbs)*m.EVAArb() +
		float64(c.SAArbs)*m.ESAArb() +
		float64(c.ClockedFlitHops)*m.EClockDyn() +
		float64(c.BypassHops+c.BypassInjections+c.BypassEjections+c.LocalFlits)*m.EBypassHop()

	// Links: wire capacitance and leakage scale with the physical span,
	// so longer channels (folded torus, concentrated mesh) cost
	// proportionally more per traversal and per idle cycle.
	ll := c.linkLength()
	b.LinkStatic = float64(c.Cycles) * float64(c.Links) * m.LinkStaticW() * cyc * ll
	b.LinkDynamic = float64(c.LinkTraversals) * m.ELink() * ll

	// Power-gating overhead.
	b.PGOverhead = float64(c.Wakeups) * m.WakeupEnergy()
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
