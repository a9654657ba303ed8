package noc

import (
	"nord/internal/fault"
	"nord/internal/flit"
	"nord/internal/obs"
	"nord/internal/topology"
)

// This file threads the fault-injection subsystem through the network:
// applying scheduled fault events (link corruption, dropped wakeups,
// stuck and hard-failed routers), the end-to-end retransmit machinery
// with capped exponential backoff, and hard-fail activation that pins a
// dead router to the NoRD bypass ring (it behaves as permanently
// power-gated, so its node stays connected while through-traffic routes
// around it).

// FaultOptions tunes the recovery machinery attached alongside a fault
// schedule. The zero value selects the defaults.
type FaultOptions struct {
	// RetryLimit is the maximum end-to-end retransmissions per payload
	// before it is declared unrecoverable (default 8).
	RetryLimit int
	// RetryBackoffBase is the first retransmit delay in cycles; retry k
	// waits RetryBackoffBase << k, capped at RetryBackoffCap (defaults 16
	// and 1024).
	RetryBackoffBase int
	RetryBackoffCap  int
	// WatchdogTimeout is how long demand must persist against a gated-off
	// router that refuses to wake before the power-gating watchdog forces
	// the wakeup through (default 8*WakeupLatency + 4*WakeupWindow, at
	// least 64 cycles).
	WatchdogTimeout int
}

func (o *FaultOptions) fill(p *Params) {
	if o.RetryLimit == 0 {
		o.RetryLimit = 8
	}
	if o.RetryBackoffBase == 0 {
		o.RetryBackoffBase = 16
	}
	if o.RetryBackoffCap == 0 {
		o.RetryBackoffCap = 1024
	}
	if o.WatchdogTimeout == 0 {
		o.WatchdogTimeout = max(8*p.WakeupLatency+4*WakeupWindow, 64)
	}
}

// retryEntry is one pending end-to-end retransmission.
type retryEntry struct {
	pkt *flit.Packet
	at  uint64
}

// faultInjector owns the attached schedule, the armed transient faults,
// the retransmit queue and the recovery accounting.
type faultInjector struct {
	events []fault.Event // cycle-ordered
	next   int
	opts   FaultOptions
	report fault.Report
	// armed counts pending link corruptions per unidirectional link,
	// indexed router*NumDirs+dir. A flat slice (not a map) so shard
	// workers can decrement their own routers' entries concurrently:
	// distinct links are distinct elements, and only the owning shard
	// touches a link's entry inside a parallel phase.
	armed  []int32
	retryQ []retryEntry
	failed []int // activated hard-fail router IDs
}

// AttachFaults arms a fault schedule on the network. It must be called
// before the first Tick/Step. Options zero-values select defaults.
func (n *Network) AttachFaults(s *fault.Schedule, opts FaultOptions) error {
	if n.cycle != 0 {
		return &fault.ProtocolError{Cycle: n.cycle, Router: -1, Msg: "fault schedule attached after simulation start"}
	}
	opts.fill(&n.p)
	fi := &faultInjector{
		events: append([]fault.Event(nil), s.Events...),
		opts:   opts,
		armed:  make([]int32, n.nn*int(topology.NumDirs)),
	}
	for _, e := range fi.events {
		if !n.topo.Valid(e.Router) {
			return &fault.ProtocolError{Cycle: 0, Router: e.Router, Msg: "fault event targets a router outside the grid"}
		}
		fi.report.Injected[e.Kind]++
	}
	n.faults = fi
	// The fault machinery pokes arbitrary routers (scheduled events,
	// hard-fail activation, retransmits) outside the event-sparse
	// activation discipline: faulted runs use the full-scan kernel.
	n.fullScan()
	return nil
}

// FaultReport returns the recovery accounting of the attached schedule
// (nil when no faults are armed). Valid once the run has finished.
func (n *Network) FaultReport() *fault.Report {
	if n.faults == nil {
		return nil
	}
	return &n.faults.report
}

// HardFailedRouters returns the routers that have hard-failed so far.
func (n *Network) HardFailedRouters() []int {
	if n.faults == nil {
		return nil
	}
	return append([]int(nil), n.faults.failed...)
}

// Quiescent reports whether no packet is in flight and no retransmission
// is pending — the drain-complete condition for faulted runs.
func (n *Network) Quiescent() bool {
	return n.inFlight == 0 && (n.faults == nil || len(n.faults.retryQ) == 0)
}

// tick runs the injector at the top of each network cycle: applying due
// events, activating pending hard-fails once the target has drained, and
// issuing due retransmissions.
func (fi *faultInjector) tick(n *Network) {
	for fi.next < len(fi.events) && fi.events[fi.next].Cycle <= n.cycle {
		fi.apply(n, fi.events[fi.next])
		fi.next++
	}
	fi.activateHardFails(n)
	fi.issueRetransmits(n)
}

// apply injects one fault event.
func (fi *faultInjector) apply(n *Network, e fault.Event) {
	r := n.routers[e.Router]
	switch e.Kind {
	case fault.CorruptLink:
		d := topology.Dir(e.Dir % int(topology.Local))
		if _, ok := n.topo.Neighbor(e.Router, d); !ok {
			// Edge router without that link (meshes only; a torus wires
			// every port, wrap links included): rotate to an existing one
			// so the armed fault can actually bite.
			for dd := topology.Dir(0); dd < topology.Local; dd++ {
				if _, ok := n.topo.Neighbor(e.Router, dd); ok {
					d = dd
					break
				}
			}
		}
		fi.armed[e.Router*int(topology.NumDirs)+int(d)]++
	case fault.DropWakeup:
		r.dropWakeups++
	case fault.StuckOff:
		if !r.wakeBlocked && !r.hardFailed {
			r.wakeBlocked = true
			r.stuckCounted = false
		}
	case fault.HardFail:
		if !r.hardFailed {
			r.failPending = true
		}
	}
}

// activateHardFails completes pending hard-fails whose routers have
// drained. A hard-failed router is pinned off: under NoRD its node keeps
// sending, receiving and forwarding over the non-gated bypass ring;
// under conventional designs the mesh loses the router for good.
func (fi *faultInjector) activateHardFails(n *Network) {
	for _, r := range n.routers {
		if !r.failPending {
			continue
		}
		switch r.state {
		case powerWaking:
			// Let the wake complete; the fail lands next quiet moment.
			continue
		case powerOn:
			if !r.safeToKill() {
				continue
			}
			r.gateOff()
		}
		r.failPending = false
		r.hardFailed = true
		r.wakeBlocked = false
		if n.tracer != nil {
			n.tracer.Emit(n.cycle, int32(r.id), obs.KindHardFail, obs.CauseNone, 0)
		}
		fi.report.Triggered[fault.HardFail]++
		fi.report.RoutersLost++
		fi.failed = append(fi.failed, r.id)
	}
}

// safeToKill reports whether the router can be disabled without breaking
// flow-control invariants: empty datapath, nothing incoming, and (NoRD)
// a drained bypass engine.
func (r *Router) safeToKill() bool {
	return !r.busy() && !r.incomingSoon() && r.net.nis[r.id].bypassDrained(r)
}

// faultBlocksWake applies the wake-path faults when a gated-off router's
// WU level is asserted: a stuck PG controller (StuckOff) or a swallowed
// handshake (DropWakeup) keeps the router off until the power-gating
// watchdog times out on the persistent demand and forces the wakeup
// through. It reports blocked while the wake must stay suppressed, and
// forced when the wake going ahead is the watchdog's.
func (r *Router) faultBlocksWake() (blocked, forced bool) {
	n := r.net
	fi := n.faults
	if fi == nil {
		return false, false
	}
	if !r.wakeBlocked && !r.wakeSwallowed {
		if r.dropWakeups == 0 {
			return false, false
		}
		r.dropWakeups--
		r.wakeSwallowed = true
		fi.report.Triggered[fault.DropWakeup]++
	}
	if r.wakeBlocked && !r.stuckCounted {
		r.stuckCounted = true
		fi.report.Triggered[fault.StuckOff]++
	}
	if r.wakeWantSince == 0 {
		r.wakeWantSince = n.cycle
		return true, false
	}
	if n.cycle-r.wakeWantSince < uint64(fi.opts.WatchdogTimeout) {
		return true, false
	}
	// Watchdog fired: re-issue the lost wakeup and reset the controller.
	r.wakeBlocked = false
	r.wakeSwallowed = false
	r.wakeWantSince = 0
	fi.report.WatchdogWakeups++
	return false, true
}

// maybeCorrupt fires an armed link fault on a departing flit. It runs
// inside parallel phases, so it only touches the calling shard's
// accumulators and this link's own armed counter; the report totals are
// folded from the shard deltas at the end of the cycle.
func (fi *faultInjector) maybeCorrupt(sh *shard, id int, dir topology.Dir, f *flit.Flit) {
	k := id*int(topology.NumDirs) + int(dir)
	if fi.armed[k] == 0 {
		return
	}
	fi.armed[k]--
	f.Corrupt()
	sh.repCorrupt++
}

// verify checks a delivered flit's checksum, poisoning the packet on
// mismatch. The poisoned packet keeps traversing so wormhole and credit
// state stay consistent; its destination NI drops it and the source
// retransmits (end-to-end recovery). Poison is a compare-and-swap so
// that when two corrupted flits of the same packet arrive the same cycle
// in different shards, exactly one shard counts the poisoning.
func (fi *faultInjector) verify(n *Network, sh *shard, f *flit.Flit) {
	if f.Packet.IsPoisoned() || f.ChecksumOK() {
		return
	}
	if !f.Packet.Poison() {
		return
	}
	sh.repPoisoned++
}

// dropPoisoned handles a poisoned packet reaching its destination:
// schedule the retransmission (capped exponential backoff) or declare the
// payload unrecoverable once the retry budget is spent.
func (fi *faultInjector) dropPoisoned(n *Network, p *flit.Packet) {
	if p.Retries >= fi.opts.RetryLimit {
		fi.report.PacketsLost++
		if len(fi.report.Unrecoverable) < 8 {
			fi.report.Unrecoverable = append(fi.report.Unrecoverable, &fault.UnrecoverableError{
				Cycle: n.cycle, PacketID: p.ID, Src: p.Src, Dst: p.Dst, Retries: p.Retries,
			})
		}
		return
	}
	delay := fi.opts.RetryBackoffBase << p.Retries
	if delay > fi.opts.RetryBackoffCap {
		delay = fi.opts.RetryBackoffCap
	}
	fi.retryQ = append(fi.retryQ, retryEntry{pkt: p, at: n.cycle + uint64(delay)})
}

// issueRetransmits re-injects due retransmissions at their source NI.
// Injection backpressure just defers to the next cycle.
func (fi *faultInjector) issueRetransmits(n *Network) {
	if len(fi.retryQ) == 0 {
		return
	}
	keep := fi.retryQ[:0]
	for _, e := range fi.retryQ {
		if e.at > n.cycle {
			keep = append(keep, e)
			continue
		}
		n.nextPktID++
		clone := flit.Retransmit(e.pkt, n.nextPktID)
		if !n.Inject(clone) {
			keep = append(keep, retryEntry{pkt: e.pkt, at: n.cycle + 1})
			continue
		}
		fi.report.Retransmits++
	}
	fi.retryQ = keep
}
