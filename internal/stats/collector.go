package stats

import (
	"nord/internal/power"
)

// NoC aggregates everything a network simulation measures. The noc
// package fills it; the sim package converts it into reports. Every
// datapath event count (the power-gating transitions and residencies,
// the power model's event counts, idle and busy cycles, misroutes,
// escapes, NI VC requests) and the WakeupStall sample are per-router or
// per-NI quantities: noc keeps each on the router or NI that saw it and
// derives the collector's total as a sum whenever the collector is read.
// Only Cycles, PacketsInjected, the delivered-packet statistics and
// IdlePeriods are written into the collector directly. Fault-recovery
// events are counted in fault.Report, not here.
type NoC struct {
	// Cycles measured (after warmup).
	Cycles uint64

	// Packet-level statistics. Latency is measured from injection at the
	// source node (including source queueing) to ejection of the tail
	// flit at the destination.
	PacketsInjected  uint64
	PacketsDelivered uint64
	FlitsDelivered   uint64
	PacketLatency    Sample
	LatencyHist      *Histogram // per-packet latency distribution
	NetworkLatency   Sample     // from head entering the network to tail ejection
	Hops             Sample
	MisroutedHops    uint64
	EscapedPackets   uint64

	// Power-gating behaviour.
	Wakeups     uint64 // off->on transitions
	GateOffs    uint64 // on->off transitions
	WakeupStall Sample // cycles packets spent stalled waiting for wakeups

	// Per-router idle/power state accounting, summed over routers.
	RouterOnCycles     uint64
	RouterOffCycles    uint64
	RouterWakingCycles uint64

	// Dynamic event counts feeding the power model. A switch grant is one
	// buffer read, one crossbar traversal and one clocked flit hop, so
	// SAArbs stands for all four.
	BufWrites        uint64
	VAArbs, SAArbs   uint64
	LinkTraversals   uint64
	BypassHops       uint64
	BypassInjections uint64
	BypassEjections  uint64
	// LocalFlits counts flits delivered over the NI-local path of a
	// concentrated router (terminal-to-terminal traffic that never
	// entered the network); 0 on concentration-1 topologies.
	LocalFlits uint64

	// NIVCRequests sums the per-cycle VC requests seen at every NI (the
	// raw signal of NoRD's wakeup metric, used to regenerate Figure 7).
	NIVCRequests uint64

	// Idle-period distribution across all routers (datapath emptiness,
	// independent of whether the design actually gated them off).
	IdlePeriods *Histogram
	IdleCycles  uint64
	BusyCycles  uint64
}

// AvgVCRequestsPerWindow returns the mean windowed VC-request count per
// node for the given window length (NoRD's wakeup metric, Section 4.3).
func (n *NoC) AvgVCRequestsPerWindow(nodes, window int) float64 {
	if n.Cycles == 0 || nodes == 0 {
		return 0
	}
	perCyclePerNode := float64(n.NIVCRequests) / float64(n.Cycles) / float64(nodes)
	return perCyclePerNode * float64(window)
}

// NewNoC returns a collector with an idle-period histogram sized for
// periods up to maxIdlePeriod cycles.
func NewNoC(maxIdlePeriod int) *NoC {
	return &NoC{
		IdlePeriods: NewHistogram(maxIdlePeriod),
		LatencyHist: NewHistogram(4096),
	}
}

// LatencyPercentile returns the p-quantile (0..1) of per-packet latency.
func (n *NoC) LatencyPercentile(p float64) uint64 {
	return n.LatencyHist.Percentile(p)
}

// PowerCounts converts the collected event counts into the power model's
// input, for a NoC with the given population and power-gating blocks.
func (n *NoC) PowerCounts(routers, links int, blocks power.Blocks) power.Counts {
	return power.Counts{
		Cycles:           n.Cycles,
		Routers:          routers,
		Links:            links,
		RouterOnCycles:   n.RouterOnCycles + n.RouterWakingCycles,
		RouterOffCycles:  n.RouterOffCycles,
		Wakeups:          n.Wakeups,
		BufWrites:        n.BufWrites,
		BufReads:         n.SAArbs,
		XbarTraversals:   n.SAArbs,
		VAArbs:           n.VAArbs,
		SAArbs:           n.SAArbs,
		ClockedFlitHops:  n.SAArbs,
		LinkTraversals:   n.LinkTraversals,
		BypassHops:       n.BypassHops,
		BypassInjections: n.BypassInjections,
		BypassEjections:  n.BypassEjections,
		LocalFlits:       n.LocalFlits,
		Blocks:           blocks,
	}
}

// AvgPacketLatency returns the mean end-to-end packet latency in cycles.
func (n *NoC) AvgPacketLatency() float64 { return n.PacketLatency.Mean() }

// Throughput returns delivered flits per node per cycle.
func (n *NoC) Throughput(nodes int) float64 {
	if n.Cycles == 0 || nodes == 0 {
		return 0
	}
	return float64(n.FlitsDelivered) / float64(n.Cycles) / float64(nodes)
}

// IdleFraction returns the aggregate router idle fraction.
func (n *NoC) IdleFraction() float64 {
	total := n.IdleCycles + n.BusyCycles
	if total == 0 {
		return 0
	}
	return float64(n.IdleCycles) / float64(total)
}

// OffFraction returns the fraction of router-cycles spent gated off.
func (n *NoC) OffFraction() float64 {
	total := n.RouterOnCycles + n.RouterOffCycles + n.RouterWakingCycles
	if total == 0 {
		return 0
	}
	return float64(n.RouterOffCycles) / float64(total)
}
