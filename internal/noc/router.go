package noc

import (
	"fmt"
	"math/bits"

	"nord/internal/fault"
	"nord/internal/flit"
	"nord/internal/power"
	"nord/internal/stats"
	"nord/internal/topology"
)

// powerState is a router's power-gating state.
type powerState uint8

const (
	powerOn powerState = iota
	powerOff
	powerWaking
)

// String implements fmt.Stringer.
func (s powerState) String() string {
	switch s {
	case powerOn:
		return "on"
	case powerOff:
		return "off"
	case powerWaking:
		return "waking"
	default:
		return "?"
	}
}

// vcPhase is the state machine of one input virtual channel.
type vcPhase uint8

const (
	vcIdle     vcPhase = iota
	vcRouting          // head at front, route computation pending
	vcWaitVA           // route computed, awaiting an output VC
	vcActive           // output VC held; flits move in SA
	vcWaitWake         // conventional designs: stalled waking a gated-off router
)

// owner identifies the holder of an output VC: a (input port, input VC)
// pair, or the NI bypass engine of a gated-off router.
type owner struct {
	port topology.Dir
	vc   int16
}

const (
	ownerFreePort   topology.Dir = 0xFE
	ownerBypassPort topology.Dir = 0xFD
)

var ownerFree = owner{port: ownerFreePort}

// vcState is one input virtual channel.
type vcState struct {
	buf     []*flit.Flit
	phase   vcPhase
	route   topology.Dir
	outVC   int
	target  int // router being awoken while in vcWaitWake
	wuFrom  uint64
	stallAt uint64 // cycle the wait began, for wakeup-stall stats
	vaFails int    // consecutive failed VA attempts (forces escape/wake)
	// port/vcIdx locate this VC in its router (the bit it owns in the
	// per-phase occupancy masks).
	port  uint8
	vcIdx uint8
}

func (v *vcState) empty() bool { return len(v.buf) == 0 }

func (v *vcState) head() *flit.Flit {
	if len(v.buf) == 0 {
		return nil
	}
	return v.buf[0]
}

func (v *vcState) push(f *flit.Flit) { v.buf = append(v.buf, f) }

func (v *vcState) pop() *flit.Flit {
	f := v.buf[0]
	copy(v.buf, v.buf[1:])
	v.buf = v.buf[:len(v.buf)-1]
	return f
}

// Router is a canonical 4-stage wormhole VC router (Section 3.1): routing
// computation (RC), VC allocation (VA), switch allocation (SA), switch
// traversal (ST), with link traversal and buffer write (LT) overlapped on
// the wire.
type Router struct {
	id  int
	net *Network

	// in[dir][vc] are the input units. The Local port receives flits
	// injected by the NI.
	in [topology.NumDirs][]*vcState

	// outCredits[dir][vc] tracks the free downstream buffer slots for
	// each output VC; outOwner[dir][vc] is the current holder.
	outCredits [topology.NumDirs][]int
	outOwner   [topology.NumDirs][]owner

	// stReg[dir] holds the flit that won SA last cycle and traverses the
	// crossbar to output dir this cycle. On a concentrated topology the
	// Local output is C flits wide: stLocalX holds the C-1 extra Local
	// ejection slots (nil slice at concentration 1, so the mesh pipeline
	// is untouched).
	stReg    [topology.NumDirs]*flit.Flit
	stLocalX []*flit.Flit

	state       powerState
	wakeCounter int
	emptyRun    int

	// Fault-injection state. hardFailed pins the router off permanently
	// (it behaves as power-gated forever; under NoRD its node survives on
	// the bypass ring). failPending defers a scheduled hard-fail until the
	// datapath drains. wakeBlocked models a stuck PG controller that
	// refuses wakeups; wakeSwallowed a single lost wakeup handshake. Both
	// are recovered by the power-gating watchdog, which force-wakes the
	// router once demand has persisted past the timeout (wakeWantSince
	// tracks the demand onset). dropWakeups is the number of armed
	// lost-handshake events; stuckCounted dedups the triggered accounting.
	hardFailed    bool
	failPending   bool
	wakeBlocked   bool
	wakeSwallowed bool
	stuckCounted  bool
	dropWakeups   int
	wakeWantSince uint64

	// bypassRemaining[vc] > 0 marks a packet mid-flight through this
	// (gated-off or just-woken) router's NI bypass on ring VC vc: its
	// remaining flits must keep using the bypass so wormhole order is
	// preserved across a wakeup (Section 4.3).
	bypassRemaining []int
	// creditsHeld[vc] counts credits withheld from the ring upstream for
	// VCs still mid-bypass at wakeup time, to be restored when they drain.
	creditsHeld []int

	// rr is the round-robin pointer used by SA and VA arbitration.
	rr int

	// Occupancy counters for fast-pathing idle routers: bufFlits counts
	// flits resident in input buffers, stFlits flits in ST registers,
	// and phaseCnt the number of input VCs in each non-idle phase.
	// phaseMask mirrors phaseCnt as one occupancy bit per input VC
	// (phaseMask[phase][port] bit v), letting the pipeline stages iterate
	// only the occupied VCs instead of scanning every slot.
	bufFlits  int
	stFlits   int
	phaseCnt  [5]int
	phaseMask [5][topology.NumDirs]uint64

	// bypassSum is the running total of bypassRemaining and heldVCs the
	// number of VCs with withheld ring credits — O(1) stand-ins for the
	// per-VC scans on the hot path.
	bypassSum int
	heldVCs   int

	// saScratch is reused each cycle to gather SA candidates.
	saScratch []saCand

	// ev is this node's record of the priced events (its NI's included),
	// measured interval only: foldStats sums the records into the
	// collector. Its residency is charged through cycle resFrom by
	// settle; the open stretch since resFrom belongs to the current state.
	ev      power.Events
	resFrom uint64

	// The other per-router event counts, measured interval only.
	statGateOffs  uint64
	statMisroutes uint64
	statEscapes   uint64
	// statWakeStall samples the cycles a head stalled here waiting for
	// the router it must enter to wake.
	statWakeStall stats.Sample

	// The idle run, stamped where it changes like the residency above:
	// statIdle is the measured cycles of r's closed idle runs and, while
	// idling, the open run began at cycle idleFrom. Only a ticked router
	// is sampled; a dormant one is idle by the deactivation invariant, so
	// its open run simply goes on.
	idling   bool
	idleFrom uint64
	statIdle uint64

	// stateSince is the cycle of the last power-FSM transition, giving
	// the residency argument on trace events.
	stateSince uint64

	// saGrantsLastCycle feeds the NoRD wakeup window while the router is
	// on: through-traffic is demand just as NI VC requests are while it
	// is off, so a router being actively used does not immediately
	// re-gate and thrash.
	saGrantsLastCycle uint32
	saGrantsThisCycle uint32
}

// saCand is one switch-allocation candidate: an active input VC with a
// flit at its head.
type saCand struct {
	d  topology.Dir
	v  int
	vc *vcState
}

// freshHeadPhase is the phase a head flit enters when it reaches the
// front of its VC: vcRouting for the canonical 4-stage pipeline (a full
// RC cycle), or vcWaitVA directly when look-ahead routing folds RC away
// (TwoStageRouter, Section 6.8).
func (r *Router) freshHeadPhase() vcPhase {
	if r.net.p.TwoStageRouter {
		return vcWaitVA
	}
	return vcRouting
}

// setPhase moves an input VC to a new phase, maintaining the counters and
// occupancy masks.
func (r *Router) setPhase(vc *vcState, p vcPhase) {
	bit := uint64(1) << vc.vcIdx
	if vc.phase != vcIdle {
		r.phaseCnt[vc.phase]--
		r.phaseMask[vc.phase][vc.port] &^= bit
	}
	vc.phase = p
	if p != vcIdle {
		r.phaseCnt[p]++
		r.phaseMask[p][vc.port] |= bit
	}
}

// initRouter initialises a (zeroed, contiguously allocated) router in
// place. The per-port slices share contiguous backing arrays so the
// pipeline scans walk sequential memory.
func initRouter(r *Router, id int, net *Network) {
	p := &net.p
	V := p.vcsPerPort()
	ND := int(topology.NumDirs)
	r.id = id
	r.net = net
	r.bypassRemaining = make([]int, V)
	r.creditsHeld = make([]int, V)
	states := make([]vcState, ND*V)
	ptrs := make([]*vcState, ND*V)
	credits := make([]int, ND*V)
	owners := make([]owner, ND*V)
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		base := int(d) * V
		r.in[d] = ptrs[base : base+V : base+V]
		r.outCredits[d] = credits[base : base+V : base+V]
		r.outOwner[d] = owners[base : base+V : base+V]
		for v := 0; v < V; v++ {
			st := &states[base+v]
			st.buf = make([]*flit.Flit, 0, p.BufferDepth)
			st.port = uint8(d)
			st.vcIdx = uint8(v)
			r.in[d][v] = st
			r.outOwner[d][v] = ownerFree
			// Credits toward wired neighbors are the downstream buffer
			// depth (on a torus every grid port is wired); the Local
			// output (ejection) is modelled as an always-available sink
			// via the stReg only.
			if d != topology.Local {
				if _, ok := net.topo.Neighbor(id, d); ok {
					r.outCredits[d][v] = p.BufferDepth
				}
			}
		}
	}
	if c := net.conc; c > 1 {
		r.stLocalX = make([]*flit.Flit, c-1)
	}
	if net.gated && p.ForcedOff {
		r.state = powerOff
	}
}

// on reports whether the router's normal pipeline is usable (PG signal
// deasserted). A waking router still presents as gated-off to neighbors.
func (r *Router) on() bool { return r.state == powerOn }

// datapathEmpty reports whether the router holds no flits in buffers or
// pipeline registers and no VC is mid-packet. VCs stalled in vcWaitWake
// hold buffered head flits, so the flit counters cover them.
func (r *Router) datapathEmpty() bool {
	return r.bufFlits == 0 && r.stFlits == 0 &&
		r.phaseCnt[vcRouting] == 0 && r.phaseCnt[vcWaitVA] == 0 && r.phaseCnt[vcActive] == 0
}

// busy reports datapath occupancy for idle-period statistics: any flit in
// buffers, pipeline registers, or mid-bypass.
func (r *Router) busy() bool {
	return !r.datapathEmpty() || r.bypassSum > 0
}

// sampleIdle is the measured cycle's look at a ticked router, taken in
// the controller walk right after its controller: a busy cycle closes the
// open idle run, an idle one opens a run at this cycle.
func (r *Router) sampleIdle() {
	switch busy := r.busy(); {
	case busy && r.idling:
		r.closeIdle()
		r.idling = false
	case !busy && !r.idling:
		r.idling, r.idleFrom = true, r.net.cycle
	}
}

// idleRun is the length of the open idle run through statEpoch, the last
// cycle accounted (0 when r is not idling).
func (r *Router) idleRun() uint64 {
	if !r.idling {
		return 0
	}
	return r.net.statEpoch + 1 - r.idleFrom
}

// closeIdle charges the open idle run to statIdle and, as one period, to
// the collector's idle-period distribution; an idling router's next run
// starts after statEpoch.
func (r *Router) closeIdle() {
	if run := r.idleRun(); run > 0 {
		r.statIdle += run
		r.net.col.IdlePeriods.Add(run)
	}
	r.idleFrom = r.net.statEpoch + 1
}

// idleCycles is r's measured idle cycles, the open run included.
func (r *Router) idleCycles() uint64 { return r.statIdle + r.idleRun() }

// tickST moves last cycle's SA winners onto the output links (the ST
// stage; the following LT cycle is modelled by the link's delivery delay).
func (r *Router) tickST() {
	if r.stFlits == 0 {
		return
	}
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		f := r.stReg[d]
		if f == nil {
			continue
		}
		r.stReg[d] = nil
		r.stFlits--
		if d == topology.Local {
			// Ejection: short local wire, arrives at the NI next cycle.
			r.net.nis[r.id].deliverEject(f)
			continue
		}
		r.net.sendLink(r.id, d, f)
	}
	// Extra Local ejection slots of a widened (concentrated) local port.
	for i, f := range r.stLocalX {
		if f == nil {
			continue
		}
		r.stLocalX[i] = nil
		r.stFlits--
		r.net.nis[r.id].deliverEject(f)
	}
}

// tickSA performs switch allocation: for each output, pick one eligible
// active input VC (round-robin), pop its flit, charge a credit and place
// the flit into the ST register.
func (r *Router) tickSA() {
	if !r.on() || r.bufFlits == 0 || r.phaseCnt[vcActive] == 0 {
		return
	}
	// Gather the (few) active input VCs with a flit at their head once,
	// iterating only the occupied bits of the vcActive mask (same
	// ascending port/VC order as a full scan).
	cands := r.saScratch[:0]
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		m := r.phaseMask[vcActive][d]
		for m != 0 {
			v := bits.TrailingZeros64(m)
			m &= m - 1
			vc := r.in[d][v]
			if !vc.empty() {
				cands = append(cands, saCand{d: d, v: v, vc: vc})
			}
		}
	}
	r.saScratch = cands
	if len(cands) == 0 {
		return
	}
	var portRead [topology.NumDirs]bool
	rrOut := r.rr % int(topology.NumDirs)
	rrCand := r.rr % len(cands)
	for outIdx := 0; outIdx < int(topology.NumDirs); outIdx++ {
		out := topology.Dir(outIdx + rrOut)
		if out >= topology.NumDirs {
			out -= topology.NumDirs
		}
		if r.stReg[out] != nil {
			continue
		}
		for k := 0; k < len(cands); k++ {
			ci := k + rrCand
			if ci >= len(cands) {
				ci -= len(cands)
			}
			c := cands[ci]
			// No emptiness re-check: every cand had a head flit at gather
			// time, and the only pops in this loop are grants, which mark
			// portRead[d] and so exclude the candidate from later outputs.
			if c.vc.route != out || portRead[c.d] {
				continue
			}
			if out != topology.Local && r.outCredits[out][c.vc.outVC] <= 0 {
				continue
			}
			r.switchGrant(c.d, c.v, c.vc, out, &r.stReg[out])
			portRead[c.d] = true
			break
		}
	}
	// A concentrated local port ejects up to C flits per cycle: grant the
	// C-1 extra Local slots to further active ejecting VCs. Each input
	// port still has a single read port, so portRead carries over from
	// the main pass. Empty on concentration-1 topologies.
	for i := range r.stLocalX {
		if r.stLocalX[i] != nil {
			continue
		}
		for k := 0; k < len(cands); k++ {
			ci := k + rrCand
			if ci >= len(cands) {
				ci -= len(cands)
			}
			c := cands[ci]
			if c.vc.route != topology.Local || portRead[c.d] || c.vc.phase != vcActive || c.vc.empty() {
				continue
			}
			r.switchGrant(c.d, c.v, c.vc, topology.Local, &r.stLocalX[i])
			portRead[c.d] = true
			break
		}
	}
	r.rr++
}

// switchGrant moves the head flit of input VC (d, v) through the switch
// toward out: into the ST register slot, or, under the 2-stage router's
// speculative SA (which folds switch traversal into this cycle), straight
// onto the link or the ejection wire. The freed buffer slot's credit
// returns upstream. A tail frees the output VC and idles the input VC;
// the next packet's head may already be queued behind it, and starts
// route computation now.
func (r *Router) switchGrant(d topology.Dir, v int, vc *vcState, out topology.Dir, slot **flit.Flit) {
	f := vc.pop()
	r.bufFlits--
	f.VC = vc.outVC
	if out != topology.Local {
		r.outCredits[out][vc.outVC]--
	}
	switch {
	case !r.net.p.TwoStageRouter:
		*slot = f
		r.stFlits++
	case out == topology.Local:
		r.net.nis[r.id].deliverEject(f)
	default:
		r.net.sendLink(r.id, out, f)
	}
	r.net.noteSAGrant(r)
	r.net.creditReturn(r.id, d, v)
	if !f.Kind.IsTail() {
		return
	}
	if out != topology.Local {
		r.outOwner[out][vc.outVC] = ownerFree
	}
	r.setPhase(vc, vcIdle)
	if h := vc.head(); h != nil {
		if !h.Kind.IsHead() {
			r.net.fail(&fault.ProtocolError{Cycle: r.net.cycle, Router: r.id,
				Msg: "non-head flit follows a tail in a VC buffer"})
			return
		}
		r.setPhase(vc, r.freshHeadPhase())
	}
}

// tickVA performs VC allocation for input VCs in vcWaitVA. Each cycle the
// route is re-evaluated (adaptive routers use up-to-date availability) and
// an output VC of the appropriate type is requested; on failure the VC
// retries next cycle, possibly falling back to escape resources
// (Duato's protocol).
func (r *Router) tickVA() {
	if !r.on() || r.phaseCnt[vcWaitVA] == 0 {
		return
	}
	// Visit waiting VCs in the same rotated flat order (port-major,
	// starting at r.rr) as a full slot scan, but via the occupancy mask so
	// the cost scales with the number of waiters. allocate never moves
	// another VC into vcWaitVA, so the per-port mask snapshots are exact.
	p := &r.net.p
	V := p.vcsPerPort()
	total := int(topology.NumDirs) * V
	start := r.rr % total
	d0 := topology.Dir(start / V)
	lowMask := (uint64(1) << uint(start%V)) - 1
	r.vaScanPort(d0, r.phaseMask[vcWaitVA][d0]&^lowMask)
	for d := d0 + 1; d < topology.NumDirs; d++ {
		r.vaScanPort(d, r.phaseMask[vcWaitVA][d])
	}
	for d := topology.Dir(0); d < d0; d++ {
		r.vaScanPort(d, r.phaseMask[vcWaitVA][d])
	}
	r.vaScanPort(d0, r.phaseMask[vcWaitVA][d0]&lowMask)
}

// vaScanPort runs VC allocation for the masked waiting VCs of one port.
func (r *Router) vaScanPort(d topology.Dir, m uint64) {
	for m != 0 {
		v := bits.TrailingZeros64(m)
		m &= m - 1
		vc := r.in[d][v]
		if vc.phase == vcWaitVA {
			r.allocate(d, v, vc)
		}
	}
}

// allocate attempts VC allocation for the head packet of input VC (d, v).
func (r *Router) allocate(d topology.Dir, v int, vc *vcState) {
	h := vc.head()
	if h == nil {
		// Head was consumed unexpectedly; reset defensively.
		r.setPhase(vc, vcIdle)
		return
	}
	pkt := h.Packet
	dec := r.net.route(r, d, pkt, vc.vaFails)
	switch dec.action {
	case actWake:
		r.setPhase(vc, vcWaitWake)
		vc.target = dec.wakeTarget
		vc.stallAt = r.net.cycle
		vc.wuFrom = r.net.cycle + uint64(dec.wuDelay)
		vc.vaFails = 0
		// The wake target may be dormant: put it on the worklist so its
		// controller observes the asserted WU level this cycle.
		r.net.active.Add(dec.wakeTarget)
		return
	case actEject:
		// Local ejection needs no VC allocation; the Local "output VC" 0
		// is used for bookkeeping only.
		r.setPhase(vc, vcActive)
		vc.route = topology.Local
		vc.outVC = 0
		vc.vaFails = 0
		r.net.noteVAGrant(r)
		return
	}
	// Try the ordered candidates (adaptive first, escape fallback).
	c := r.grant(dec.cands, owner{port: d, vc: int16(v)}, pkt)
	if c == nil {
		// Allocation failed; retry (and recompute the route) next cycle.
		vc.vaFails++
		return
	}
	r.setPhase(vc, vcActive)
	vc.route = c.dir
	vc.outVC = c.vc
	vc.vaFails = 0
	r.net.noteVAGrant(r)
}

// grant is the allocation rule of the VA stage and of the NI bypass's
// VC-check stage (Figure 4c): the first candidate whose output VC is free
// and has a credit is claimed for holder, and pkt takes on that
// candidate's bookkeeping — entering the escape network, the dateline VC
// it holds next, a misrouted hop. It returns the granted candidate, nil
// when none is available.
func (r *Router) grant(cands []cand, holder owner, pkt *flit.Packet) *cand {
	for i := range cands {
		c := &cands[i]
		if r.outOwner[c.dir][c.vc] != ownerFree || r.outCredits[c.dir][c.vc] <= 0 {
			continue
		}
		r.outOwner[c.dir][c.vc] = holder
		if c.escape && !pkt.Escaped {
			pkt.Escaped = true
			r.net.noteEscape(r)
		}
		if c.escape {
			pkt.EscapeVC = c.escapeVCNext
		}
		if c.misroute {
			pkt.Misroutes++
			r.net.noteMisroute(r)
		}
		return c
	}
	return nil
}

// tickRC runs route computation: input VCs in vcRouting move to vcWaitVA
// (one cycle), and VCs stalled in vcWaitWake re-check whether their target
// woke up.
func (r *Router) tickRC() {
	if !r.on() || (r.phaseCnt[vcRouting] == 0 && r.phaseCnt[vcWaitWake] == 0) {
		return
	}
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		// Snapshot both masks up front: a resumed vcWaitWake VC re-enters
		// vcRouting but must not be revisited this cycle (a full slot scan
		// visits each VC once too).
		m := r.phaseMask[vcRouting][d] | r.phaseMask[vcWaitWake][d]
		for m != 0 {
			v := bits.TrailingZeros64(m)
			m &= m - 1
			vc := r.in[d][v]
			switch vc.phase {
			case vcRouting:
				if vc.head() == nil {
					continue
				}
				r.setPhase(vc, vcWaitVA)
			case vcWaitWake:
				// Resume once the target router woke (or an alternative
				// appeared); the route is recomputed from scratch.
				if r.net.routers[vc.target].on() || r.net.route(r, d, vc.head().Packet, 0).action != actWake {
					r.net.noteWakeStall(r, r.net.cycle-vc.stallAt)
					r.setPhase(vc, r.freshHeadPhase())
				} else {
					// Still stalled: keep the target on the worklist so
					// it keeps seeing the WU level (its own queues give
					// it nothing to stay awake for).
					r.net.active.Add(vc.target)
				}
			}
		}
	}
}

// acceptFlit writes a delivered flit into the input buffer (the BW half of
// the LT stage).
func (r *Router) acceptFlit(d topology.Dir, f *flit.Flit) {
	vc := r.in[d][f.VC]
	if len(vc.buf) >= r.net.p.BufferDepth {
		r.net.fail(&fault.ProtocolError{Cycle: r.net.cycle, Router: r.id,
			Msg: fmt.Sprintf("buffer overflow at port %v vc %d (credit protocol violated)", d, f.VC)})
		return
	}
	vc.push(f)
	r.bufFlits++
	r.net.noteBufWrite(r)
	// A head flit starts route computation only once it is at the front
	// of the buffer (an earlier packet's tail may still be draining; the
	// upstream freed the output VC at its tail).
	if f.Kind.IsHead() && len(vc.buf) == 1 {
		if vc.phase != vcIdle {
			r.net.fail(&fault.ProtocolError{Cycle: r.net.cycle, Router: r.id,
				Msg: fmt.Sprintf("head flit at front of busy VC at port %v vc %d phase %d", d, f.VC, vc.phase)})
			return
		}
		r.setPhase(vc, r.freshHeadPhase())
	}
}

// incomingSoon reports whether any flit is en route to this router: on an
// incoming link, in a neighbor's ST register, or granted this cycle. This
// is the IC (incoming) handshake of Section 4.3 that keeps a router from
// gating off under a flit already in flight.
func (r *Router) incomingSoon() bool {
	for d := topology.Dir(0); d < topology.Local; d++ {
		nb, ok := r.net.neighbor(r.id, d)
		if !ok {
			continue
		}
		// Flits in flight on the link from nb toward us.
		if r.net.linkBusy(nb, d.Opposite()) {
			return true
		}
		// Flit in nb's ST register headed our way.
		if r.net.routers[nb].stReg[d.Opposite()] != nil {
			return true
		}
	}
	// Flits in flight from the local NI.
	if r.net.nis[r.id].injectInFlight() {
		return true
	}
	// NoRD: the ring predecessor's NI may hold a flit for us in its
	// re-injection register (bypass stage 3) that is not yet on the link.
	if r.net.ring != nil {
		if r.net.nis[r.net.ring.Pred(r.id)].injectOut != nil {
			return true
		}
	}
	return false
}
