package noc

import (
	"nord/internal/fault"
	"nord/internal/obs"
	"nord/internal/topology"
)

// This file implements the power-gating controllers: the small non-gated
// monitor every gated design keeps per router (Section 3.1), the
// handshaking of Section 4.3 (PG/WU/IC signals, credit adjustment of the
// ring upstream, pipeline restarts at neighbors), and the per-design
// wakeup conditions.

// tickController advances the router's power state machine. It runs at
// the end of every network cycle.
func (r *Router) tickController() {
	n := r.net
	p := &n.p
	if !n.gated {
		return
	}
	if r.busy() {
		r.emptyRun = 0
	} else if r.emptyRun <= p.GateIdleCycles {
		r.emptyRun++
	}
	switch r.state {
	case powerOn:
		if r.canGateOff() {
			r.gateOff()
		}
	case powerOff:
		if r.hardFailed {
			// A hard-failed router never wakes: it behaves as permanently
			// power-gated. Under NoRD its node stays reachable over the
			// bypass ring; under conventional designs neighbors stall.
			return
		}
		cause := r.wakeSignal()
		if cause == obs.CauseNone {
			r.wakeWantSince = 0
			r.wakeSwallowed = false
			return
		}
		blocked, forced := r.faultBlocksWake()
		if blocked {
			return
		}
		if forced {
			cause = obs.CauseWatchdog
		}
		if n.tracer != nil {
			n.tracer.Emit(n.cycle, int32(r.id), obs.KindWakeStart, cause, n.cycle-r.stateSince)
		}
		r.enter(powerWaking)
		r.wakeCounter = p.WakeupLatency
		if n.collecting {
			r.ev.Wakes[cause]++
		}
	case powerWaking:
		r.wakeCounter--
		if r.wakeCounter <= 0 {
			r.completeWake()
		}
	}
}

// enter is the power-FSM transition: the old state is charged its
// residency, then s takes over from this cycle on.
func (r *Router) enter(s powerState) {
	r.settle()
	r.state = s
	r.stateSince = r.net.cycle
}

// settle charges the current state with the measured cycles since the
// last charge. It runs at transitions (which happen before the cycle's
// statistics pass, so the stretch ends at statEpoch, the last cycle
// accounted) and whenever the collector is read; a stretch outside the
// measured window is dropped.
func (r *Router) settle() {
	n := r.net
	if n.collecting {
		d := n.statEpoch - r.resFrom
		switch r.state {
		case powerOn:
			r.ev.OnCycles += d
		case powerOff:
			r.ev.OffCycles += d
		default:
			r.ev.WakingCycles += d
		}
	}
	r.resFrom = n.statEpoch
}

// wakeSignal evaluates the WU level for this router and returns the signal
// asserting it, obs.CauseNone when WU is clear.
func (r *Router) wakeSignal() obs.Cause {
	n := r.net
	if n.p.ForcedOff {
		return obs.CauseNone
	}
	if n.wake == wakeAtNI {
		// The VC-request metric at the local NI (Section 4.3).
		if n.nis[r.id].wakeupMetricHigh() {
			return obs.CauseVCThreshold
		}
		return obs.CauseNone
	}
	// Conventional designs: the local node needs the router for any
	// injection (node-router dependence) ...
	if n.nis[r.id].wantsRouterOn() {
		return obs.CauseLocalInject
	}
	// ... and neighbors stalled in SA assert WU (after the assertion
	// delay that models SA-time vs RC-time generation).
	for d := topology.Dir(0); d < topology.Local; d++ {
		nb, ok := n.neighbor(r.id, d)
		if !ok {
			continue
		}
		nbr := n.routers[nb]
		if nbr.phaseCnt[vcWaitWake] == 0 {
			continue
		}
		for _, vc := range nbr.in {
			for _, st := range vc {
				if st.phase == vcWaitWake && st.target == r.id && n.cycle >= st.wuFrom {
					return obs.CauseSARequest
				}
			}
		}
	}
	return obs.CauseNone
}

// canGateOff checks the gate-off conditions: empty datapath for the IC
// horizon, no incoming flits, WU clear, and (Conv_PG_OPT) no early wakeup
// pending, which suppresses gating for idle periods shorter than the
// early-wakeup horizon (Section 5.1).
func (r *Router) canGateOff() bool {
	n := r.net
	p := &n.p
	if r.busy() || r.emptyRun < p.GateIdleCycles {
		return false
	}
	// The bypass datapath must have fully drained (latches, inject
	// register, withheld credits) before another transition.
	if n.ring != nil {
		ni := n.nis[r.id]
		if !ni.bypassDrained(r) {
			return false
		}
		// Hysteresis on the wakeup metric: wake when the windowed demand
		// reaches the (asymmetric) threshold, but gate off only after the
		// demand window has stayed completely quiet for quietNeed cycles,
		// so marginal demand does not thrash the router through state
		// transitions. Performance-centric routers sleep late (3x the
		// window), complementing their early wakeup (Section 4.4).
		if ni.window.Sum() > ni.gateSlack || n.cycle-ni.quietSince < uint64(ni.quietNeed) {
			return false
		}
		// A credit returned to the ring upstream this cycle is applied in
		// phase 9, after gateOff's clamp to the one-flit latch, and would
		// lift the upstream past it.
		if n.creditPending(r.id, n.ring.InDir(r.id)) {
			return false
		}
	}
	if r.incomingSoon() {
		return false
	}
	if r.wakeSignal() != obs.CauseNone {
		return false
	}
	if n.wake == wakeAtRC && r.earlyWakeupIncoming() {
		return false
	}
	return true
}

// earlyWakeupIncoming reports whether any neighbor has already computed a
// route toward this router (the RC-time WU of Conv_PG_OPT): gating now
// would create an idle period shorter than the wakeup pipeline can hide.
func (r *Router) earlyWakeupIncoming() bool {
	n := r.net
	for d := topology.Dir(0); d < topology.Local; d++ {
		nb, ok := n.neighbor(r.id, d)
		if !ok {
			continue
		}
		nbr := n.routers[nb]
		if nbr.phaseCnt[vcActive] == 0 {
			continue
		}
		toMe := d.Opposite()
		for _, vcs := range nbr.in {
			for _, st := range vcs {
				if st.phase == vcActive && st.route == toMe && !st.empty() {
					return true
				}
			}
		}
	}
	return false
}

// gateOff performs the on->off transition: assert PG, clamp the ring
// upstream's credits to the single bypass-latch slot (NoRD), restart
// neighbor pipelines whose allocated routes became unusable, and enable
// the NI bypass.
func (r *Router) gateOff() {
	n := r.net
	if n.tracer != nil {
		n.tracer.Emit(n.cycle, int32(r.id), obs.KindGateOff, obs.CauseNone, n.cycle-r.stateSince)
	}
	r.enter(powerOff)
	if n.collecting {
		r.statGateOffs++
	}
	for d := topology.Dir(0); d < topology.Local; d++ {
		nb, ok := n.neighbor(r.id, d)
		if !ok {
			continue
		}
		nbr := n.routers[nb]
		toMe := d.Opposite() // nb's output port toward us
		usable := n.ring != nil && n.ring.OutDir(nb) == toMe
		if usable {
			// The ring upstream keeps the port but with a single credit
			// per VC: the one-flit bypass latch (Section 4.3).
			for v := range nbr.outCredits[toMe] {
				if nbr.outCredits[toMe][v] > 1 {
					nbr.outCredits[toMe][v] = 1
				}
			}
			continue
		}
		// Other neighbors tag the port unavailable and restart any head
		// packet that had allocated it (flits in VA/SA restart from RC).
		if nbr.phaseCnt[vcActive] == 0 {
			continue
		}
		for _, vcs := range nbr.in {
			for _, st := range vcs {
				if st.phase == vcActive && st.route == toMe {
					nbr.outOwner[toMe][st.outVC] = ownerFree
					nbr.setPhase(st, vcRouting)
					st.vaFails = 0
				}
			}
		}
	}
	n.nis[r.id].onRouterOff()
}

// postWakeHold keeps a freshly woken router from gating off again before
// the packet that requested the wakeup can reach it. In hardware the
// requester sits stalled in the SA stage with its WU level asserted until
// its flit traverses; this model restarts the requester from RC instead,
// so the hold covers the RC->VA->SA->ST->LT pipeline refill.
const postWakeHold = 10

// completeWake finishes the off->on transition: deassert PG, top the ring
// upstream's credits back up (deferring VCs still mid-bypass), and let
// stalled neighbors resume (they poll in tickRC).
func (r *Router) completeWake() {
	n := r.net
	p := &n.p
	if n.tracer != nil {
		n.tracer.Emit(n.cycle, int32(r.id), obs.KindWakeDone, obs.CauseNone, n.cycle-r.stateSince)
	}
	r.enter(powerOn)
	r.emptyRun = -postWakeHold
	if n.ring == nil {
		return
	}
	ni := n.nis[r.id]
	add := p.BufferDepth - 1
	for v := range r.bypassRemaining {
		if r.bypassRemaining[v] > 0 || ni.latch[v] != nil || ni.fwdOutVC[v] >= 0 {
			// A packet is mid-bypass on this VC: hold the extra credits
			// until it drains so the latch cannot overrun.
			if add > 0 && r.creditsHeld[v] == 0 {
				r.heldVCs++
			}
			r.creditsHeld[v] = add
			continue
		}
		n.addRingUpstreamCredits(r.id, v, add)
	}
}

// onRouterOff lets the NI react to its router gating off: a local packet
// whose injection had been set up through the Local port but has not sent
// any flit yet is requeued so it can take the bypass (NoRD) or wait for
// the wakeup (conventional designs re-assert WU through wantsRouterOn).
func (ni *NI) onRouterOff() {
	if ni.curMode != modeLocal {
		return
	}
	if len(ni.curFlits) == 0 || ni.curFlits[0].Seq != 0 {
		// Flits already entered the router: the router could not have
		// been empty, so this cannot happen.
		ni.net.fail(&fault.ProtocolError{Cycle: ni.net.cycle, Router: ni.id,
			Msg: "router gated off mid local injection"})
		return
	}
	pkt := ni.curFlits[0].Packet
	c := int(pkt.Class)
	// None of the flits were sent (Seq 0 is still at the front): recycle
	// the serialisation before requeueing the packet at the head.
	for _, f := range ni.curFlits {
		ni.net.pool.PutFlit(f)
	}
	ni.injQ[c].pushFront(pkt)
	ni.queuedTotal++
	ni.curFlits = nil
	ni.curMode = modeNone
}
