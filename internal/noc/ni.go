package noc

import (
	"nord/internal/fault"
	"nord/internal/flit"
	"nord/internal/stats"
	"nord/internal/topology"
)

// starvationLimit grants the local node priority over bypass-forward
// traffic after this many consecutive blocked cycles (Section 4.2).
const starvationLimit = 8

// injMode describes how the NI is currently injecting a packet.
type injMode uint8

const (
	modeNone  injMode = iota
	modeLocal         // through the router's Local input port (router on)
	modeRing          // through the Bypass Outport (NoRD, router gated off)
)

type timedFlit struct {
	f  *flit.Flit
	at uint64
}

// timedPkt is a whole packet in flight over the NI-local crossbar of a
// concentrated router (terminal-to-terminal traffic that never enters
// the network).
type timedPkt struct {
	p  *flit.Packet
	at uint64
}

// pktQueue is a growable ring buffer of queued packets (the NI injection
// queue). It replaces a plain slice whose pop-front reslicing leaked
// capacity and reallocated on the hot path.
type pktQueue struct {
	buf  []*flit.Packet
	head int
	n    int
}

func (q *pktQueue) len() int { return q.n }

func (q *pktQueue) at(i int) *flit.Packet { return q.buf[(q.head+i)%len(q.buf)] }

func (q *pktQueue) front() *flit.Packet { return q.buf[q.head] }

func (q *pktQueue) grow() {
	nb := make([]*flit.Packet, max(4, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		nb[i] = q.at(i)
	}
	q.buf = nb
	q.head = 0
}

func (q *pktQueue) pushBack(p *flit.Packet) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = p
	q.n++
}

func (q *pktQueue) pushFront(p *flit.Packet) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1 + len(q.buf)) % len(q.buf)
	q.buf[q.head] = p
	q.n++
}

func (q *pktQueue) popFront() *flit.Packet {
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return p
}

// NI is a node's network interface. Besides the usual injection and
// ejection queues it implements NoRD's decoupling bypass (Section 4.2,
// Figure 4c): a per-VC single-flit latch fed by the router's Bypass
// Inport, a VC-check/forward stage, and a re-injection stage multiplexed
// with local injection onto the Bypass Outport. The NI also computes the
// VC-request wakeup metric over a sliding window (Section 4.3).
type NI struct {
	id  int
	net *Network
	// sh is the shard owning this node (the single shard of a serial
	// network); section-phase writes go through it.
	sh *shard

	// Injection queues, one per protocol class, in packets.
	injQ []pktQueue
	// Current packet being injected. curFlits is a consuming window over
	// curBuf, the persistent serialisation buffer refilled from the
	// network's flit pool.
	curFlits   []*flit.Flit
	curBuf     []*flit.Flit
	curVC      int
	curMode    injMode
	allocCycle uint64
	classRR    int

	// localCredits tracks free slots of the router's Local input VCs.
	localCredits []int
	// toLocal holds flits in flight over the short NI->router wire.
	toLocal []timedFlit
	// ejPend holds flits in flight from the router's Local output.
	ejPend []timedFlit
	// localQ holds intra-router packets (terminals of the same
	// concentrated router) crossing the NI-local path: wire plus
	// serialization latency, no router involvement, no wakeup. Always
	// empty at concentration 1.
	localQ []timedPkt

	// Bypass engine (NoRD only).
	latch     []*flit.Flit // one-flit latch per ring VC
	fwdOutVC  []int        // downstream VC held by the in-progress forward, -1 if none
	fwdFails  []int        // consecutive failed allocations per latch VC
	injFails  int          // consecutive failed ring-injection allocations
	injectOut *flit.Flit   // stage-3 register: re-injection onto the Bypass Outport
	injectFwd bool         // injectOut carries forwarded (vs locally injected) traffic
	bypassRR  int
	starve    int
	// latchCount/fwdCount/queuedTotal are O(1) occupancy counters (number
	// of held latches, of in-progress forwards, of queued packets across
	// classes) standing in for per-VC and per-class scans on the hot path.
	latchCount  int
	fwdCount    int
	queuedTotal int

	// window accumulates per-cycle VC request counts for the wakeup
	// metric; threshold is this node's asymmetric wakeup threshold.
	window    *stats.Window
	threshold int
	// quietSince is the last cycle the demand window stood above
	// gateSlack; gating requires the quiet run since then to reach
	// quietNeed (longer for performance-centric routers, which sleep late
	// as well as waking early). Power-centric routers tolerate a light
	// trickle (the bypass will carry it), trading a little latency for
	// static energy. A dormant NI's window is zero, so the run goes on
	// while it sleeps without anything being written.
	quietSince uint64
	quietNeed  int
	gateSlack  uint64
	// demandAccum integrates the windowed demand signal between
	// reclassification rounds (DynamicClassify).
	demandAccum uint64

	// Per-NI event counts, measured interval only; foldStats sums them
	// into the collector. statVCRequests sums the per-cycle VC requests
	// (the raw signal of NoRD's wakeup metric), statLocalFlits the flits
	// delivered over a concentrated router's NI-local path.
	statVCRequests    uint64
	statBypassInjects uint64
	statBypassEjects  uint64
	statLocalFlits    uint64
}

// initNI initialises a (zeroed, contiguously allocated) NI in place.
func initNI(ni *NI, id int, net *Network) {
	p := &net.p
	V := p.vcsPerPort()
	ni.id = id
	ni.net = net
	ni.sh = net.shardFor(id)
	ni.injQ = make([]pktQueue, p.Classes)
	ni.localCredits = make([]int, V)
	ni.latch = make([]*flit.Flit, V)
	ni.fwdOutVC = make([]int, V)
	ni.fwdFails = make([]int, V)
	ni.window = stats.NewWindow(WakeupWindow)
	ni.threshold = p.ThresholdPower
	for c := range ni.injQ {
		// One extra slot: a drained-router requeue (pushFront) can briefly
		// hold depth+1 packets.
		ni.injQ[c].buf = make([]*flit.Packet, p.InjectQueueDepth+1)
	}
	for v := range ni.localCredits {
		ni.localCredits[v] = p.BufferDepth
		ni.fwdOutVC[v] = -1
	}
	ni.setClass(false)
	for _, pc := range p.PerfCentric {
		if pc == id {
			ni.setClass(true)
		}
	}
}

// setClass assigns this NI's wakeup behaviour to the performance-centric
// or power-centric class (Section 4.4).
func (ni *NI) setClass(perf bool) {
	p := &ni.net.p
	if perf {
		ni.threshold = p.ThresholdPerf
		ni.quietNeed = 2 * WakeupWindow
		ni.gateSlack = 0
	} else {
		ni.threshold = p.ThresholdPower
		ni.quietNeed = WakeupWindow
		ni.gateSlack = 1
	}
}

// inject enqueues a packet for injection; it reports false (backpressure)
// when the class queue is full.
func (ni *NI) inject(p *flit.Packet) bool {
	c := int(p.Class)
	if ni.injQ[c].len() >= ni.net.p.InjectQueueDepth {
		return false
	}
	p.InjectTime = ni.net.cycle
	ni.injQ[c].pushBack(p)
	ni.queuedTotal++
	ni.net.notePacketInjected(p)
	return true
}

// injectLocal accepts an intra-router packet: its source and destination
// terminals share this concentrated router, so it crosses the NI-local
// path (wire + serialization delay) without touching the network or
// waking the router. Reports false (backpressure) when the local queue
// is full.
func (ni *NI) injectLocal(p *flit.Packet) bool {
	if len(ni.localQ) >= ni.net.p.InjectQueueDepth {
		return false
	}
	p.InjectTime = ni.net.cycle
	p.EnqueueTime = ni.net.cycle
	ni.localQ = append(ni.localQ, timedPkt{p: p, at: ni.net.cycle + 2 + uint64(p.Length)})
	ni.net.notePacketInjected(p)
	return true
}

// queuedPackets returns the number of packets waiting or mid-injection.
func (ni *NI) queuedPackets() int {
	n := ni.queuedTotal
	if len(ni.curFlits) > 0 {
		n++
	}
	return n
}

// injectInFlight reports flits on the NI->router local wire (part of the
// IC incoming check).
func (ni *NI) injectInFlight() bool { return len(ni.toLocal) > 0 }

// wantsRouterOn reports whether the node needs its router awake: for
// conventional designs any pending injection requires the router
// (node-router dependence); NoRD never does.
func (ni *NI) wantsRouterOn() bool {
	if ni.net.ring != nil {
		return false
	}
	return ni.queuedPackets() > 0
}

// bypassDrained reports whether the bypass datapath holds nothing:
// latches, in-progress forwards, the inject register, and ring credits
// withheld since the last wakeup. Trivially true without a ring.
func (ni *NI) bypassDrained(r *Router) bool {
	return ni.injectOut == nil && ni.latchCount == 0 && ni.fwdCount == 0 && r.heldVCs == 0
}

// wakeupMetricHigh reports whether the windowed VC-request count has
// reached this node's threshold (NoRD's wakeup condition).
func (ni *NI) wakeupMetricHigh() bool {
	return ni.window.Sum() >= uint64(ni.threshold)
}

// deliverEject accepts a flit leaving the router's Local output (ST
// stage); it reaches the node next cycle.
func (ni *NI) deliverEject(f *flit.Flit) {
	ni.ejPend = append(ni.ejPend, timedFlit{f: f, at: ni.net.cycle + 1})
}

// deliverBypass accepts a flit arriving over the Bypass Inport link while
// the router is gated off (or mid-bypass after a wakeup). Flits destined
// to this node are sunk directly through the ejection demultiplexer;
// transit flits land in the per-VC bypass latch.
func (ni *NI) deliverBypass(f *flit.Flit) {
	r := ni.net.routers[ni.id]
	inDir := ni.net.ring.InDir(ni.id)
	if f.Kind.IsHead() {
		f.Packet.Hops++
	}
	if f.Packet.Dst == ni.id {
		// Sink: the latch is not occupied, so the credit returns at once.
		ni.net.creditReturn(ni.sh, ni.id, inDir, f.VC)
		ni.net.noteBypassEject(ni)
		r.accountBypassFlit(f)
		if f.Kind.IsTail() {
			ni.net.deliverPacket(ni.sh, f.Packet)
		}
		ni.sh.pool.PutFlit(f)
		return
	}
	if ni.latch[f.VC] != nil {
		ni.net.failSh(ni.sh, &fault.ProtocolError{Cycle: ni.net.cycle, Router: ni.id,
			Msg: "bypass latch overrun (ring credit protocol violated)"})
		return
	}
	if ni.net.p.AggressiveBypass && ni.tryAggressiveForward(r, f) {
		return
	}
	ni.latch[f.VC] = f
	ni.latchCount++
	r.accountBypassFlit(f)
}

// accountBypassFlit accounts a flit entering this router's NI bypass on
// ring VC f.VC (sunk, latched or forwarded combinationally): a head opens
// the packet's mid-bypass count, every later flit closes one, so a wakeup
// mid-packet sees the same state whichever way the flit went.
func (r *Router) accountBypassFlit(f *flit.Flit) {
	if f.Kind.IsHead() {
		r.bypassSum += f.Packet.Length - 1 - r.bypassRemaining[f.VC]
		r.bypassRemaining[f.VC] = f.Packet.Length - 1
	} else if r.bypassRemaining[f.VC] > 0 {
		r.bypassRemaining[f.VC]--
		r.bypassSum--
	}
}

// tryAggressiveForward implements the Section 6.8 aggressive bypass:
// forward the arriving flit combinationally from the Bypass Inport to the
// Bypass Outport within this cycle, optimistically assuming no conflict.
// It succeeds only when nothing else wants the outport (no latched flits,
// no pending re-injection, no local traffic) and the downstream VC and
// credit are immediately available; otherwise the caller falls back to
// the normal 2-cycle latch pipeline.
func (ni *NI) tryAggressiveForward(r *Router, f *flit.Flit) bool {
	if ni.injectOut != nil || ni.curMode == modeRing || ni.latchCount > 0 || ni.localRingHeadPending(r) {
		return false
	}
	ringOut := ni.net.ring.OutDir(ni.id)
	v := f.VC
	if f.Kind.IsHead() && ni.fwdOutVC[v] < 0 && !ni.allocForward(r, v, f.Packet, 0) {
		return false
	}
	out := ni.fwdOutVC[v]
	if out < 0 || r.outCredits[ringOut][out] <= 0 {
		return false
	}
	r.outCredits[ringOut][out]--
	r.accountBypassFlit(f)
	// The latch was never occupied: the upstream credit returns at once.
	ni.net.creditReturn(ni.sh, ni.id, ni.net.ring.InDir(ni.id), v)
	f.VC = out
	ni.net.sendLinkDelay(ni.id, ringOut, f, 1)
	ni.net.noteBypassHop(r)
	if f.Kind.IsTail() {
		r.outOwner[ringOut][out] = ownerFree
		ni.fwdOutVC[v] = -1
		ni.fwdCount--
	}
	return true
}

// tickDeliver processes flits whose wire delay expired: ejections reach
// the node and injected flits reach the router's Local input port.
func (ni *NI) tickDeliver() {
	now := ni.net.cycle
	keepEj := ni.ejPend[:0]
	for _, tf := range ni.ejPend {
		if tf.at > now {
			keepEj = append(keepEj, tf)
			continue
		}
		if tf.f.Kind.IsTail() {
			ni.net.deliverPacket(ni.sh, tf.f.Packet)
		}
		ni.sh.pool.PutFlit(tf.f)
	}
	ni.ejPend = keepEj
	if len(ni.localQ) > 0 {
		keepLoc := ni.localQ[:0]
		for _, tp := range ni.localQ {
			if tp.at > now {
				keepLoc = append(keepLoc, tp)
				continue
			}
			if ni.net.collecting && tp.p.InjectTime >= ni.net.measureFrom {
				ni.statLocalFlits += uint64(tp.p.Length)
			}
			ni.net.deliverPacket(ni.sh, tp.p)
		}
		ni.localQ = keepLoc
	}
	keepIn := ni.toLocal[:0]
	for _, tf := range ni.toLocal {
		if tf.at > now {
			keepIn = append(keepIn, tf)
			continue
		}
		ni.net.routers[ni.id].acceptFlit(topology.Local, tf.f)
	}
	ni.toLocal = keepIn
}

// tick runs one NI cycle: the bypass stage-3 send, the bypass stage-2
// VC-check/forward (arbitrated with local injection), local-port
// injection, and the wakeup-metric window update (NoRD, the only design
// that reads it).
func (ni *NI) tick() {
	r := ni.net.routers[ni.id]
	requests := uint32(0)

	if ni.net.ring != nil {
		requests += ni.tickBypass(r)
	}
	requests += ni.tickInjection(r)
	if ni.net.collecting {
		ni.statVCRequests += uint64(requests)
	}
	if ni.net.ring == nil {
		return
	}

	// Through-traffic counts as demand while the router is on (the NI's
	// VC requests stop once the router serves packets normally, but the
	// node's demand has not dropped).
	ni.window.Push(requests + r.saGrantsLastCycle)
	ni.demandAccum += uint64(requests) + uint64(r.saGrantsLastCycle)
	if ni.window.Sum() > ni.gateSlack {
		ni.quietSince = ni.net.cycle
	}
}

// tickBypass runs the NoRD bypass pipeline. It returns the number of VC
// requests made this cycle (for the wakeup metric).
func (ni *NI) tickBypass(r *Router) uint32 {
	ringOut := ni.net.ring.OutDir(ni.id)
	// Stage 3: re-inject last cycle's winner onto the Bypass Outport.
	if ni.injectOut != nil {
		f := ni.injectOut
		ni.injectOut = nil
		ni.net.sendLink(ni.id, ringOut, f)
		if ni.injectFwd {
			ni.net.noteBypassHop(r)
		} else {
			ni.net.noteBypassInject(ni)
		}
		if f.Kind.IsTail() {
			r.outOwner[ringOut][f.VC] = ownerFree
			if !ni.injectFwd {
				ni.curFlits = nil
				ni.curMode = modeNone
			}
		}
	}

	// Stage 2: pick the next flit for the inject register, forwarded
	// traffic first; the local node gets priority after starvationLimit
	// consecutive blocked cycles (Section 4.2). Every occupied latch VC
	// is tried in rotating order so one blocked head cannot starve a
	// movable flit (whose departure may free the very VC the head needs).
	V := ni.net.p.vcsPerPort()
	hasFwd := ni.latchCount > 0
	localWants := ni.localRingHeadPending(r)
	tryForward := func() bool {
		for k := 0; k < V; k++ {
			v := (k + ni.bypassRR) % V
			if ni.latch[v] == nil {
				continue
			}
			if ni.forwardFromLatch(r, v) {
				ni.bypassRR = v + 1
				return true
			}
		}
		return false
	}
	if ni.injectOut == nil {
		localFirst := localWants && ni.starve >= starvationLimit
		moved := false
		if !localFirst && hasFwd {
			moved = tryForward()
			if moved && localWants {
				ni.starve++
			}
		}
		if !moved {
			if ni.advanceRingInjection(r) {
				ni.starve = 0
				moved = true
			} else if hasFwd && localFirst {
				moved = tryForward()
			}
		}
	}

	// The wakeup metric counts demand still outstanding after this
	// cycle's VC-check stage: an uncontended transit clears its latch
	// immediately and adds nothing, while congestion leaves flits parked
	// in the latches re-requesting every cycle ("the number of VC
	// requests goes up even if the flits are stalled", Section 4.3).
	requests := uint32(ni.latchCount)
	if !r.on() && (ni.localRingHeadPending(r) || (ni.curMode == modeNone && ni.nextQueuedClass() >= 0)) {
		requests++ // local traffic still waiting for the ring
	}
	if ni.threshold <= 1 && ni.injectOut != nil {
		// Performance-centric routers (threshold 1) also count served
		// transits, so they wake at the first sign of use rather than
		// the first blockage — the "wake up early" intent of the
		// asymmetric classification (Section 4.4).
		requests++
	}

	// Withheld ring credits for VCs whose mid-bypass packet has fully
	// drained after a wakeup (Section 4.3) are restored by
	// restoreRingCredits at the post-NI merge point: the restore writes the
	// ring-upstream neighbour, which may live in another shard.
	return requests
}

// forwardFromLatch tries to move the latch flit on VC v into the inject
// register (the VC-check stage (2) of Figure 4c).
func (ni *NI) forwardFromLatch(r *Router, v int) bool {
	f := ni.latch[v]
	ringOut := ni.net.ring.OutDir(ni.id)
	if f.Kind.IsHead() && ni.fwdOutVC[v] < 0 {
		if !ni.allocForward(r, v, f.Packet, ni.fwdFails[v]) {
			ni.fwdFails[v]++
			return false
		}
		ni.fwdFails[v] = 0
	}
	out := ni.fwdOutVC[v]
	if out < 0 {
		ni.net.failSh(ni.sh, &fault.ProtocolError{Cycle: ni.net.cycle, Router: ni.id,
			Msg: "bypass body flit without an allocated downstream VC"})
		return false
	}
	if r.outCredits[ringOut][out] <= 0 {
		return false
	}
	r.outCredits[ringOut][out]--
	ni.latch[v] = nil
	ni.latchCount--
	// The latch slot frees: return the ring-upstream credit.
	ni.net.creditReturn(ni.sh, ni.id, ni.net.ring.InDir(ni.id), v)
	f.VC = out
	ni.injectOut = f
	ni.injectFwd = true
	if f.Kind.IsTail() {
		ni.fwdOutVC[v] = -1
		ni.fwdCount--
	}
	return true
}

// allocForward allocates a downstream ring VC for the head arriving on
// ring VC v — the router's own allocation rule over the candidates a
// gated-off router leaves — and records it as v's in-progress forward.
func (ni *NI) allocForward(r *Router, v int, pkt *flit.Packet, fails int) bool {
	c := r.grant(ni.net.bypassCands(r, pkt, fails), owner{port: ownerBypassPort, vc: int16(v)}, pkt)
	if c == nil {
		return false
	}
	ni.fwdOutVC[v] = c.vc
	ni.fwdCount++
	return true
}

// localRingHeadPending reports whether local injection needs the ring this
// cycle (a head awaiting a VC or a body flit awaiting movement).
func (ni *NI) localRingHeadPending(r *Router) bool {
	if ni.curMode == modeRing && len(ni.curFlits) > 0 {
		return true
	}
	if ni.curMode != modeNone {
		return false
	}
	// A fresh packet would use the ring when the router is unavailable
	// (NoRD decoupling: inject anyway).
	if r.on() {
		return false
	}
	return ni.nextQueuedClass() >= 0
}

// advanceRingInjection moves one locally injected flit toward the Bypass
// Outport: allocating a downstream VC for a fresh head, or streaming the
// next flit of the in-progress packet.
func (ni *NI) advanceRingInjection(r *Router) bool {
	ringOut := ni.net.ring.OutDir(ni.id)
	if ni.curMode == modeNone {
		if r.on() {
			return false
		}
		c := ni.nextQueuedClass()
		if c < 0 {
			return false
		}
		pkt := ni.injQ[c].front()
		cd := r.grant(ni.net.bypassCands(r, pkt, ni.injFails), owner{port: ownerBypassPort, vc: -1}, pkt)
		if cd == nil {
			ni.injFails++
			return false
		}
		ni.injQ[c].popFront()
		ni.queuedTotal--
		ni.classRR = c + 1
		ni.curBuf = ni.sh.pool.AppendFlits(ni.curBuf[:0], pkt)
		ni.curFlits = ni.curBuf
		ni.curVC = cd.vc
		ni.curMode = modeRing
		pkt.EnqueueTime = ni.net.cycle
		ni.injFails = 0
		// The head moves into the inject register in this same VC-check
		// stage (symmetric with forwardFromLatch).
	}
	if ni.curMode != modeRing || len(ni.curFlits) == 0 {
		return false
	}
	if r.outCredits[ringOut][ni.curVC] <= 0 {
		return false
	}
	f := ni.curFlits[0]
	ni.curFlits = ni.curFlits[1:]
	r.outCredits[ringOut][ni.curVC]--
	f.VC = ni.curVC
	ni.injectOut = f
	ni.injectFwd = false
	return true
}

// tickInjection advances local-port injection (router on) and falls back
// to ring injection bookkeeping. It returns VC requests made against the
// local input port this cycle.
func (ni *NI) tickInjection(r *Router) uint32 {
	requests := uint32(0)
	switch ni.curMode {
	case modeNone:
		c := ni.nextQueuedClass()
		if c < 0 {
			return 0
		}
		if !r.on() {
			// Conventional designs stall (their WU assertion is handled
			// by the controller via wantsRouterOn); NoRD's ring path is
			// handled in tickBypass.
			if ni.net.ring == nil {
				requests++
			}
			return requests
		}
		requests++
		pkt := ni.injQ[c].front()
		if v, ok := ni.freeLocalVC(int(pkt.Class)); ok {
			ni.injQ[c].popFront()
			ni.queuedTotal--
			ni.classRR = c + 1
			ni.curBuf = ni.sh.pool.AppendFlits(ni.curBuf[:0], pkt)
			ni.curFlits = ni.curBuf
			ni.curVC = v
			ni.curMode = modeLocal
			ni.allocCycle = ni.net.cycle
			pkt.EnqueueTime = ni.net.cycle
		}
	case modeLocal:
		if len(ni.curFlits) == 0 {
			ni.curMode = modeNone
			return 0
		}
		if ni.net.cycle <= ni.allocCycle {
			return 0
		}
		// A concentrated local port is C flits wide: up to C flits of the
		// in-progress packet enter the router per cycle (one at
		// concentration 1, the plain mesh behaviour).
		for k := 0; k < ni.net.conc && len(ni.curFlits) > 0; k++ {
			if ni.localCredits[ni.curVC] <= 0 {
				break
			}
			f := ni.curFlits[0]
			ni.curFlits = ni.curFlits[1:]
			ni.localCredits[ni.curVC]--
			f.VC = ni.curVC
			ni.toLocal = append(ni.toLocal, timedFlit{f: f, at: ni.net.cycle + 1})
		}
		if len(ni.curFlits) == 0 {
			ni.curMode = modeNone
		}
	case modeRing:
		// Handled by tickBypass.
	}
	return requests
}

// nextQueuedClass returns the class of the next packet to inject
// (round-robin across classes), or -1 when idle.
func (ni *NI) nextQueuedClass() int {
	if ni.queuedTotal == 0 {
		return -1
	}
	n := len(ni.injQ)
	for k := 0; k < n; k++ {
		c := (k + ni.classRR) % n
		if ni.injQ[c].len() > 0 {
			return c
		}
	}
	return -1
}

// freeLocalVC finds an idle Local-input VC of the class with full credit.
func (ni *NI) freeLocalVC(class int) (int, bool) {
	p := &ni.net.p
	r := ni.net.routers[ni.id]
	base := p.vcBase(class)
	for v := base; v < base+p.VCsPerClass; v++ {
		if r.in[topology.Local][v].phase == vcIdle && ni.localCredits[v] == p.BufferDepth {
			return v, true
		}
	}
	return 0, false
}
