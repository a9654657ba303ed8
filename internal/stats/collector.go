package stats

import (
	"nord/internal/power"
)

// NoC aggregates everything a network simulation measures. The noc
// package fills it; the sim package converts it into reports. Every
// datapath event count (the power model's priced events, gate-offs, idle
// and busy cycles, misroutes, escapes, NI VC requests) and the
// WakeupStall sample are per-router or per-NI quantities: noc keeps each
// on the router or NI that saw it and derives the collector's total as a
// sum whenever the collector is read. Only Cycles, PacketsInjected, the
// delivered-packet statistics and IdlePeriods are written into the
// collector directly. Fault-recovery events are counted in fault.Report,
// not here.
type NoC struct {
	// Cycles measured (after warmup).
	Cycles uint64

	// Packet-level statistics. Latency is measured from injection at the
	// source node (including source queueing) to ejection of the tail
	// flit at the destination.
	PacketsInjected  uint64
	PacketsDelivered uint64
	FlitsDelivered   uint64
	LatencyHist      *Histogram // per-packet latency distribution
	NetworkLatency   Sample     // from head entering the network to tail ejection
	Hops             Sample
	MisroutedHops    uint64
	EscapedPackets   uint64

	// The priced events, summed over routers: the power model's input.
	power.Events

	GateOffs    uint64 // on->off transitions
	WakeupStall Sample // cycles packets spent stalled waiting for wakeups

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

// AvgPacketLatency returns the mean end-to-end packet latency in cycles.
func (n *NoC) AvgPacketLatency() float64 { return n.LatencyHist.Mean() }

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
