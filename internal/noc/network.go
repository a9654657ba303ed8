package noc

import (
	"cmp"
	"fmt"
	"slices"

	"nord/internal/fault"
	"nord/internal/flit"
	"nord/internal/obs"
	"nord/internal/power"
	"nord/internal/stats"
	"nord/internal/topology"
)

// defaultWatchdogLimit is the number of consecutive cycles without any
// flit movement (while packets are in flight) after which the network
// declares itself deadlocked. Wakeup latencies are tens of cycles, so tens
// of thousands of stalled cycles indicate a protocol bug (or, with fault
// injection active, a partition). Params.WatchdogLimit overrides it.
const defaultWatchdogLimit = 50_000

// maxIdlePeriod bounds the idle-period histogram in cycles; longer periods
// land in its overflow bucket, still counted exactly.
const maxIdlePeriod = 4096

// creditEvt is a pending credit return, applied at the end of the cycle
// (one-cycle credit propagation).
type creditEvt struct {
	router int
	port   topology.Dir
	vc     int
}

// Network is the complete NoC fabric: routers, NIs, links and the
// measurement machinery, advanced one cycle at a time by Tick.
type Network struct {
	p    Params
	topo topology.Topology
	// term is the terminal grid (topo.Terminals()); traffic sources
	// address terminals, which the injection path maps onto routers. For
	// concentration-1 topologies it is the identity frame over the router
	// grid. conc caches topo.Concentration() for the hot paths.
	term topology.Mesh
	conc int
	// The design's row of the designs table, resolved once by New: gated
	// is the PG switch (routers have a controller), wake how a gated-off
	// router is asked back on, and ring — non-nil exactly when the design
	// has the bypass — the ring itself.
	gated bool
	wake  wakeRule
	ring  *topology.Ring

	routers []*Router
	nis     []*NI

	// links[id][dir] holds flits in flight on the unidirectional channel
	// leaving router id through dir.
	links [][4][]timedFlit

	cycle        uint64
	col          *stats.NoC
	collecting   bool
	measureFrom  uint64
	ejectHandler func(*flit.Packet, uint64)
	injectHook   func(*flit.Packet, uint64)

	// nbrTab caches topo.Neighbor for the hot paths: nbrTab[id*5+dir] is
	// the adjacent node id, or -1 when the port is unwired (mesh edges;
	// a torus has every grid port wired) — and always -1 for the Local
	// pseudo-direction.
	nbrTab []int32

	inFlight     int
	lastProgress uint64 // the last cycle a flit moved or a packet arrived
	nextPktID    uint64

	// pool recycles every packet and flit the network creates or ejects;
	// credits holds the cycle's credit returns until phase 9 applies them;
	// candScratch is the route computation's reusable candidate list, and
	// rankScratch reclassification's ranking.
	pool        flit.Pool
	credits     []creditEvt
	candScratch []cand
	rankScratch []ranked

	// faults is the attached fault injector (nil when no schedule is
	// armed); err latches the first structured error — once set, every
	// subsequent Step returns it without advancing the simulation.
	faults *faultInjector
	err    error

	// tracer is the optional cycle-level event sink (internal/obs). Nil
	// when tracing is off: every hook is behind a single nil check, so
	// the steady-state tick path stays allocation-free.
	tracer *obs.Tracer

	// Event-sparse kernel state. active is the worklist, the nodes that
	// must be ticked; a node leaves it when nodeNeedsTick turns false and
	// rejoins (active.Add) when an event touches it again.
	// statEpoch is the cycle the network has been accounted through: a
	// dormant node needs no accounting, since power-state residency, the
	// idle run and the NI quiet run are stamped at their transitions and
	// read up to statEpoch. Faulted runs use the same worklist: a fault
	// event arms state that a node reads only once a flit, a wakeup or an
	// injection has activated it (hard-fail activation walks every
	// router), and nodeNeedsTick keeps a router listed while its wake
	// watchdog times a refused wake.
	nn        int
	active    topology.NodeSet
	statEpoch uint64
	// linkCount[id] counts flits in flight on node id's output links, so
	// link delivery can skip nodes whose channels are idle.
	linkCount []int

	// minDirs/xyDirs are the precomputed routing tables, indexed
	// src*nn+dst (nil beyond routeTableMaxNodes; directions are then
	// computed arithmetically, still allocation-free).
	minDirs []topology.DirSet
	xyDirs  []topology.Dir
}

// New builds a network from validated parameters.
func New(p Params) (*Network, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	topo, err := topology.New(p.Topology, p.Width, p.Height)
	if err != nil {
		return nil, err
	}
	n := &Network{
		p:     p,
		topo:  topo,
		term:  topo.Terminals(),
		conc:  topo.Concentration(),
		col:   stats.NewNoC(maxIdlePeriod),
		links: make([][4][]timedFlit, topo.N()),
	}
	row := p.Design.row()
	n.gated, n.wake = row.blocks.PGSwitch, row.wake
	if row.blocks.Bypass {
		var ring *topology.Ring
		if p.RingOrder != nil {
			ring, err = topology.RingFromOrder(topo, p.RingOrder)
		} else {
			ring, err = topology.NewRing(topo)
		}
		if err != nil {
			return nil, fmt.Errorf("noc: building bypass ring: %w", err)
		}
		n.ring = ring
	}
	n.nn = topo.N()
	n.active = topology.NewNodeSet(n.nn)
	n.linkCount = make([]int, n.nn)
	n.nbrTab = make([]int32, n.nn*int(topology.NumDirs))
	for id := 0; id < n.nn; id++ {
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			nb, ok := topo.Neighbor(id, d)
			if !ok {
				nb = -1
			}
			n.nbrTab[id*int(topology.NumDirs)+int(d)] = int32(nb)
		}
	}
	// A new network starts with every node on the worklist.
	for id := 0; id < n.nn; id++ {
		n.active.Add(id)
	}
	n.buildRouteTables()
	// Routers and NIs live in two contiguous arrays: the per-cycle loops
	// walk them in index order, so locality matters more than it would for
	// individually boxed objects.
	rbuf := make([]Router, n.nn)
	nbuf := make([]NI, n.nn)
	n.routers = make([]*Router, n.nn)
	n.nis = make([]*NI, n.nn)
	for id := 0; id < n.nn; id++ {
		n.routers[id] = &rbuf[id]
		initRouter(n.routers[id], id, n)
		n.nis[id] = &nbuf[id]
		initNI(n.nis[id], id, n)
	}
	if n.ring != nil && p.ForcedOff {
		// Routers start gated off: each ring upstream holds the single
		// bypass-latch credit per VC (Section 4.3).
		for id := 0; id < n.nn; id++ {
			out := n.ring.OutDir(id)
			for v := range n.routers[id].outCredits[out] {
				n.routers[id].outCredits[out][v] = 1
			}
		}
	}
	return n, nil
}

// MustNew is New that panics on invalid parameters.
func MustNew(p Params) *Network {
	n, err := New(p)
	if err != nil {
		panic(err)
	}
	return n
}

// Params returns the network's configuration.
func (n *Network) Params() Params { return n.p }

// Mesh returns the terminal grid: the coordinate frame traffic patterns
// and injection addresses live in. For mesh and torus it coincides with
// the router grid; for the concentrated mesh it is the 2Wx2H terminal
// grid (four terminals per router).
func (n *Network) Mesh() topology.Mesh { return n.term }

// Topo returns the router-level topology.
func (n *Network) Topo() topology.Topology { return n.topo }

// Ring returns the bypass ring (nil for designs without the bypass).
func (n *Network) Ring() *topology.Ring { return n.ring }

// Cycle returns the current simulation cycle.
func (n *Network) Cycle() uint64 { return n.cycle }

// Collector exposes the raw statistics collector, first folding in the
// per-router counts (the power time series samples cumulative counters
// mid-run). Reading changes nothing: a second read returns the same.
func (n *Network) Collector() *stats.NoC {
	n.foldStats()
	return n.col
}

// InFlight returns the number of packets injected but not yet delivered.
func (n *Network) InFlight() int { return n.inFlight }

// SetTracer attaches (or, with nil, detaches) the cycle-level event sink.
// With no tracer attached every hook on the tick path is a single nil
// check, preserving the zero-allocation steady state.
func (n *Network) SetTracer(t *obs.Tracer) {
	n.tracer = t
	if t != nil {
		t.SetNodes(n.nn)
	}
}

// Tracer returns the attached event sink (nil when tracing is off).
func (n *Network) Tracer() *obs.Tracer { return n.tracer }

// SetDeliveryHandler registers a callback invoked when a packet's tail is
// ejected at its destination (used by the memory-system substrate). The
// handler must not keep the packet: once it returns, the network may
// recycle the packet for a later NewPacket. It may keep the Payload.
func (n *Network) SetDeliveryHandler(f func(*flit.Packet, uint64)) { n.ejectHandler = f }

// BeginMeasurement starts statistics collection (call after warmup).
// Packets injected before this cycle do not contribute latency samples.
func (n *Network) BeginMeasurement() {
	// Consume the open power-state stretches accumulated during warmup
	// against the pre-measurement interval, so the measured window starts
	// clean; every router's idle state is seeded from its datapath.
	n.foldStats()
	for _, r := range n.routers {
		r.idling, r.idleFrom = !r.busy(), n.cycle+1
	}
	n.collecting = true
	n.measureFrom = n.cycle
}

// FinishMeasurement closes every router's open idle run into the
// idle-period distribution (a trailing run is a period too) and folds the
// collector. Calling it again changes nothing.
func (n *Network) FinishMeasurement() {
	for _, r := range n.routers {
		r.closeIdle()
	}
	n.foldStats()
}

// foldStats derives every datapath count of the collector from the
// routers' and NIs' own records, settling each router's open power-state
// stretch first and counting its open idle run without closing it, so a
// fold changes nothing a later one reads.
func (n *Network) foldStats() {
	c := n.col
	c.Events = power.Events{}
	c.GateOffs, c.MisroutedHops, c.EscapedPackets = 0, 0, 0
	c.IdleCycles, c.WakeupStall, c.NIVCRequests = 0, stats.Sample{}, 0
	for _, r := range n.routers {
		r.settle()
		c.Events.Add(&r.ev)
		c.GateOffs += r.statGateOffs
		c.MisroutedHops += r.statMisroutes
		c.EscapedPackets += r.statEscapes
		c.IdleCycles += r.idleCycles()
		c.WakeupStall.Merge(r.statWakeStall)
	}
	for _, ni := range n.nis {
		c.NIVCRequests += ni.statVCRequests
	}
	// Every router spends each measured cycle either idle or busy.
	c.BusyCycles = c.Cycles*uint64(len(n.routers)) - c.IdleCycles
}

// PowerCounts returns the measured interval's power-model input: the
// collector's priced events with the population, link length and
// hardware blocks they are priced on.
func (n *Network) PowerCounts() power.Counts {
	n.foldStats()
	return power.Counts{
		Events:           n.col.Events,
		Cycles:           n.col.Cycles,
		Routers:          len(n.routers),
		Links:            n.NumLinks(),
		LinkLengthFactor: n.topo.LinkLengthFactor(),
		Blocks:           n.p.Design.Blocks(),
	}
}

// Close does nothing: the network holds no goroutines or other resources
// to release. It remains for the benchmark ladder, which still calls it.
func (n *Network) Close() {}

// NewPacket returns a packet with a unique ID, ready for Inject, drawn
// from the network's recycling pool.
func (n *Network) NewPacket(src, dst int, class flit.Class, length int) *flit.Packet {
	n.nextPktID++
	p := n.pool.Packet()
	p.ID = n.nextPktID
	p.Src = src
	p.Dst = dst
	p.Class = class
	p.Length = length
	return p
}

// SetInjectHook registers a callback invoked for every packet accepted
// into an NI (used by the trace recorder). The hook must not keep the
// packet: once it is delivered, the network recycles it.
func (n *Network) SetInjectHook(f func(*flit.Packet, uint64)) { n.injectHook = f }

// Inject queues a packet at its source NI; it reports false when the
// injection queue is full (backpressure to the traffic source). Src and
// Dst are terminal IDs; on concentrated topologies they are rewritten to
// the serving routers' IDs once the packet is accepted. Terminals of the
// same router exchange packets over the widened local port without
// entering the network.
func (n *Network) Inject(p *flit.Packet) bool {
	if !n.term.Valid(p.Src) || !n.term.Valid(p.Dst) || p.Src == p.Dst {
		return false
	}
	src, dst := p.Src, p.Dst
	if n.conc > 1 {
		src = n.topo.TerminalRouter(src)
		dst = n.topo.TerminalRouter(dst)
	}
	n.active.Add(src)
	if src == dst {
		if !n.nis[src].injectLocal(p) {
			return false
		}
	} else if !n.nis[src].inject(p) {
		return false
	}
	p.Src, p.Dst = src, dst
	if n.injectHook != nil {
		n.injectHook(p, n.cycle)
	}
	return true
}

// RouterPowerOn reports whether router id is powered on (PG deasserted).
func (n *Network) RouterPowerOn(id int) bool { return n.routers[id].on() }

// RouterStateName returns "on", "off", "waking" or "failed" for router id.
func (n *Network) RouterStateName(id int) string {
	if n.routers[id].hardFailed {
		return "failed"
	}
	return n.routers[id].state.String()
}

// fail latches the first structured error; the simulation stops advancing
// once set. Later failures are dropped: the first one is the cause.
func (n *Network) fail(err error) {
	if n.err == nil {
		n.err = err
	}
}

// Err returns the latched error, if any.
func (n *Network) Err() error { return n.err }

// watchdogLimit returns the configured no-progress horizon.
func (n *Network) watchdogLimit() uint64 {
	if n.p.WatchdogLimit > 0 {
		return uint64(n.p.WatchdogLimit)
	}
	return defaultWatchdogLimit
}

// Tick advances the network by one cycle, panicking on a structured
// error. It and Run are conveniences for tests of healthy networks;
// everything that runs simulations for users goes through Step.
func (n *Network) Tick() {
	if err := n.Step(); err != nil {
		panic(err)
	}
}

// Step advances the network by one cycle. It returns a structured error
// (*fault.DeadlockError, *fault.ProtocolError) instead of panicking when
// the network deadlocks or a flow-control invariant breaks; once an error
// is returned the network is frozen and every later Step returns the same
// error.
//
// A cycle is one serial script of phases, in the order below. Each phase
// walks the active worklist live, in ascending node order (`for id :=
// n.active.Next(0); id >= 0; id = n.active.Next(id + 1)`), five walks a
// cycle. A node activated mid-walk (flit delivery, wakeup assertion,
// injection) behind the walk's position joins the remaining phases of
// the cycle; one activated ahead of it is visited by the same walk. A
// full scan visits every node in every phase, and its visit to a dormant
// node is a no-op by the dormancy invariant: a node off the worklist has
// an empty datapath, empty queues, no flits on its links and a settled
// power state. So skipping a dormant node, or visiting one activated
// ahead of the walk, steps exactly what the full scan steps.
// BenchmarkStepPhases runs the same script with a clock read between the
// phases.
func (n *Network) Step() error {
	if n.err != nil {
		return n.err
	}
	n.cycle++
	n.stepFaults()
	n.stepLinks()
	n.stepNode()
	n.stepRouter()
	n.stepControllers()
	n.stepCredits()
	n.stepStats()
	n.stepWatchdog()
	return n.err
}

// stepFaults is phase 0, fault injection: due events, hard-fail
// activation, retransmits.
func (n *Network) stepFaults() {
	if n.faults != nil {
		n.faults.tick(n)
	}
}

// stepLinks is phase 1, link traversal completion: deliver flits whose LT
// finished.
func (n *Network) stepLinks() {
	for id := n.active.Next(0); id >= 0; id = n.active.Next(id + 1) {
		if n.linkCount[id] > 0 {
			n.deliverNodeLinks(id)
		}
	}
}

// stepNode is phases 2-4 — NI wire deliveries, router ST, NI pipelines —
// fused into one pass per node. Safe because within these three phases no
// node reads state another node writes the same cycle (ST and the NI
// engines emit onto links with >= 1 cycle of delay; the one cross-node
// write, the ring-upstream credit restore, runs after the pass), and none
// of the three activates new nodes.
func (n *Network) stepNode() {
	for id := n.active.Next(0); id >= 0; id = n.active.Next(id + 1) {
		ni := n.nis[id]
		ni.tickDeliver()
		n.routers[id].tickST()
		ni.tick()
	}
	n.restoreRingCredits()
}

// stepRouter is phases 5-7 — router SA, VA, RC (reverse pipeline order so
// a flit advances at most one stage per cycle) — likewise fused: these
// stages touch only their own router's datapath (credit returns wait for
// stepCredits), and the nodes they activate — wakeup targets — are
// dormant, with empty pipelines, so the walk's visit to a target ahead of
// it is the full scan's no-op.
func (n *Network) stepRouter() {
	for id := n.active.Next(0); id >= 0; id = n.active.Next(id + 1) {
		r := n.routers[id]
		r.tickSA()
		r.tickVA()
		r.tickRC()
	}
}

// restoreRingCredits restores withheld ring credits for VCs whose
// mid-bypass packet has fully drained after a wakeup (Section 4.3). It
// runs once every NI has ticked rather than inside each NI's bypass tick,
// because it writes the ring predecessor's credit state. Every input to
// the condition is frozen once the owner's NI has ticked, and the NI pass
// activates no nodes, so walking the active worklist here in ascending
// order restores the credits in a fixed order.
func (n *Network) restoreRingCredits() {
	if n.ring == nil {
		return
	}
	for id := n.active.Next(0); id >= 0; id = n.active.Next(id + 1) {
		r := n.routers[id]
		if r.heldVCs == 0 || !r.on() {
			continue
		}
		ni := n.nis[id]
		for v := range r.creditsHeld {
			if r.creditsHeld[v] > 0 && r.bypassRemaining[v] == 0 && ni.latch[v] == nil {
				n.addRingUpstreamCredits(id, v, r.creditsHeld[v])
				r.creditsHeld[v] = 0
				r.heldVCs--
			}
		}
	}
}

// stepControllers is phase 8, the power-gating controllers, with phase
// 10's per-node accounting and the deactivation sweep in the same walk,
// then 8b, dynamic reclassification (Section 4.4 extension). A node's
// idle sample and its worklist test can run right after its own
// controller because nothing later in the cycle changes what they read:
// a later router's gateOff only restarts a neighbour VC that was already
// busy (vcActive to vcRouting, both occupancy), and reclassification and
// the phase-9 credit returns write thresholds and credit counts, which
// neither reads.
func (n *Network) stepControllers() {
	for id := n.active.Next(0); id >= 0; id = n.active.Next(id + 1) {
		r := n.routers[id]
		r.saGrantsLastCycle = r.saGrantsThisCycle
		r.saGrantsThisCycle = 0
		r.tickController()
		if n.collecting {
			r.sampleIdle()
		}
		// Nodes with no remaining work leave the worklist; an event that
		// touches them again puts them back.
		if !n.nodeNeedsTick(id) {
			n.active.Remove(id)
		}
	}
	if n.ring != nil && n.p.DynamicClassify && n.cycle%ReclassifyPeriod == 0 {
		n.reclassify()
	}
}

// stepCredits is phase 9, credit propagation, in emission order.
func (n *Network) stepCredits() {
	for _, ev := range n.credits {
		n.applyCredit(ev)
	}
	n.credits = n.credits[:0]
}

// stepStats is phase 11: the cycle is accounted, and the tracer gets the
// cycle's residency row.
func (n *Network) stepStats() {
	if n.collecting {
		n.col.Cycles++
	}
	n.statEpoch = n.cycle
	if n.tracer != nil {
		if row := n.tracer.ResidencyRow(n.cycle); row != nil {
			for id, r := range n.routers {
				s := uint8(r.state)
				if r.hardFailed {
					s = obs.StateFailed
				}
				row[id] = s
			}
		}
	}
}

// stepWatchdog is the deadlock watchdog: packets in flight and no flit
// moved for longer than the limit.
func (n *Network) stepWatchdog() {
	if n.inFlight > 0 && n.cycle-n.lastProgress > n.watchdogLimit() {
		n.fail(&fault.DeadlockError{
			Design:        n.p.Design.String(),
			Cycle:         n.cycle,
			StallCycles:   n.watchdogLimit(),
			InFlight:      n.inFlight,
			Packets:       n.collectInFlightDump(fault.MaxDumpPackets),
			FailedRouters: n.HardFailedRouters(),
		})
	}
}

// nodeNeedsTick reports whether node id still has work that requires
// ticking: router datapath or pipeline occupancy, an unfinished
// power-state transition, flits in flight on its output links, NI-side
// queues, registers and windowed demand, or a wake watchdog timing a
// refused wake. Every mutation that can turn this true for a dormant node
// puts the node back on the worklist.
func (n *Network) nodeNeedsTick(id int) bool {
	r := n.routers[id]
	if r.bufFlits > 0 || r.stFlits > 0 {
		return true
	}
	if r.phaseCnt[vcRouting] > 0 || r.phaseCnt[vcWaitVA] > 0 ||
		r.phaseCnt[vcActive] > 0 || r.phaseCnt[vcWaitWake] > 0 {
		return true
	}
	if r.saGrantsLastCycle > 0 || r.saGrantsThisCycle > 0 {
		return true
	}
	// Gated designs keep powered-on routers ticking so the controller can
	// evaluate gate-off; an idle No_PG router has nothing to tick.
	if r.state == powerWaking || (r.state == powerOn && n.gated) {
		return true
	}
	if n.linkCount[id] > 0 {
		return true
	}
	ni := n.nis[id]
	if ni.curMode != modeNone || len(ni.curFlits) > 0 || ni.injectOut != nil {
		return true
	}
	if len(ni.ejPend) > 0 || len(ni.toLocal) > 0 || len(ni.localQ) > 0 {
		return true
	}
	if ni.window.Sum() > 0 {
		return true
	}
	if ni.queuedTotal > 0 {
		return true
	}
	if n.ring != nil {
		if ni.latchCount > 0 || ni.fwdCount > 0 || r.heldVCs > 0 || r.bypassSum > 0 {
			return true
		}
	}
	// A gated-off router whose wake a fault refused (StuckOff, DropWakeup)
	// stays on the list until its controller clears the watchdog stamp:
	// once the demand is gone, the next demand must be timed afresh. Last,
	// so unfaulted runs reach it only on nodes about to leave the list.
	if r.wakeWantSince != 0 {
		return true
	}
	return false
}

// Run advances the network by the given number of cycles.
func (n *Network) Run(cycles int) {
	for i := 0; i < cycles; i++ {
		n.Tick()
	}
}

// Drain runs until all in-flight packets are delivered (and, with faults
// armed, all pending retransmits resolved) or maxCycles pass; it returns
// an error in the latter case and propagates structured Step errors.
func (n *Network) Drain(maxCycles int) error {
	for i := 0; i < maxCycles; i++ {
		if n.Quiescent() {
			return nil
		}
		if err := n.Step(); err != nil {
			return err
		}
	}
	if !n.Quiescent() {
		return fmt.Errorf("noc: %d packets still in flight after %d drain cycles", n.inFlight, maxCycles)
	}
	return nil
}

// collectInFlightDump walks every place a flit or queued packet can sit
// (NI queues and latches, router buffers and pipeline registers, links,
// the retransmit queue) and returns a bounded, deduplicated snapshot of
// stuck packets for the DeadlockError.
func (n *Network) collectInFlightDump(limit int) []fault.PacketDump {
	var out []fault.PacketDump
	seen := map[uint64]bool{}
	add := func(p *flit.Packet, where string) {
		if p == nil || seen[p.ID] || len(out) >= limit {
			return
		}
		seen[p.ID] = true
		out = append(out, fault.PacketDump{
			ID: p.ID, Src: p.Src, Dst: p.Dst,
			Class: p.Class.String(), Length: p.Length,
			AgeCycle: n.cycle - p.InjectTime,
			Where:    where,
		})
	}
	addFlit := func(f *flit.Flit, where string) {
		if f != nil {
			add(f.Packet, where)
		}
	}
	for id, ni := range n.nis {
		for c := range ni.injQ {
			q := &ni.injQ[c]
			for i := 0; i < q.len(); i++ {
				add(q.at(i), fmt.Sprintf("NI %d inject queue", id))
			}
		}
		if len(ni.curFlits) > 0 {
			add(ni.curFlits[0].Packet, fmt.Sprintf("NI %d injecting", id))
		}
		addFlit(ni.injectOut, fmt.Sprintf("NI %d ring-inject register", id))
		for v := range ni.latch {
			addFlit(ni.latch[v], fmt.Sprintf("NI %d bypass latch vc %d", id, v))
		}
		for _, tf := range ni.toLocal {
			addFlit(tf.f, fmt.Sprintf("NI %d local wire", id))
		}
		for _, tp := range ni.localQ {
			add(tp.p, fmt.Sprintf("NI %d local crossbar", id))
		}
	}
	for id, r := range n.routers {
		for d := range r.in {
			for v := range r.in[d] {
				for _, f := range r.in[d][v].buf {
					addFlit(f, fmt.Sprintf("router %d port %v vc %d", id, topology.Dir(d), v))
				}
			}
		}
		for _, sf := range r.stReg {
			addFlit(sf, fmt.Sprintf("router %d ST register", id))
		}
	}
	for id := range n.links {
		for d := 0; d < 4; d++ {
			for _, tf := range n.links[id][d] {
				addFlit(tf.f, fmt.Sprintf("link %d->%v", id, topology.Dir(d)))
			}
		}
	}
	if n.faults != nil {
		for _, e := range n.faults.retryQ {
			add(e.pkt, "retransmit queue")
		}
	}
	return out
}

// deliverNodeLinks completes link traversal for node id's due flits, in
// (port, queue position) order.
func (n *Network) deliverNodeLinks(id int) {
	for d := 0; d < 4; d++ {
		q := n.links[id][d]
		if len(q) == 0 {
			continue
		}
		keep := q[:0]
		for _, tf := range q {
			if tf.at > n.cycle {
				keep = append(keep, tf)
				continue
			}
			n.linkCount[id]--
			n.deliverFlit(id, topology.Dir(d), tf.f)
		}
		n.links[id][d] = keep
	}
}

// deliverFlit hands a flit that left router `from` on port `dir` to the
// downstream router or, when that router is gated off (or the flit's
// packet is mid-bypass), to its NI bypass.
func (n *Network) deliverFlit(from int, dir topology.Dir, f *flit.Flit) {
	to, ok := n.neighbor(from, dir)
	if !ok {
		n.fail(&fault.ProtocolError{Cycle: n.cycle, Router: from,
			Msg: fmt.Sprintf("flit sent off the edge of the mesh on dir %v", dir)})
		return
	}
	n.active.Add(to)
	n.lastProgress = n.cycle
	if n.faults != nil {
		n.faults.verify(f)
	}
	r := n.routers[to]
	inPort := dir.Opposite()
	if n.ring != nil && inPort == n.ring.InDir(to) {
		if !r.on() || r.bypassRemaining[f.VC] > 0 || n.nis[to].latch[f.VC] != nil || n.nis[to].fwdOutVC[f.VC] >= 0 {
			n.nis[to].deliverBypass(f)
			return
		}
	}
	if !r.on() {
		n.fail(&fault.ProtocolError{Cycle: n.cycle, Router: to,
			Msg: fmt.Sprintf("flit delivered to gated-off router on non-bypass port %v", inPort)})
		return
	}
	if f.Kind.IsHead() {
		f.Packet.Hops++
	}
	r.acceptFlit(inPort, f)
}

// sendLink places a flit on the unidirectional channel leaving router id
// through dir; delivery happens after the 1-cycle link traversal (the
// flit appears downstream at cycle+2: ST this cycle, LT next).
func (n *Network) sendLink(id int, dir topology.Dir, f *flit.Flit) {
	n.sendLinkDelay(id, dir, f, 2)
}

// sendLinkDelay is sendLink with an explicit delivery delay; the
// aggressive bypass uses delay 1 (no ST stage: the flit goes straight
// from Bypass Inport to Bypass Outport within the arrival cycle).
func (n *Network) sendLinkDelay(id int, dir topology.Dir, f *flit.Flit, delay uint64) {
	if dir >= topology.Local {
		n.fail(&fault.ProtocolError{Cycle: n.cycle, Router: id, Msg: "sendLink on local port"})
		return
	}
	if n.faults != nil {
		n.faults.maybeCorrupt(id, dir, f)
	}
	n.links[id][dir] = append(n.links[id][dir], timedFlit{f: f, at: n.cycle + delay})
	n.linkCount[id]++
	n.lastProgress = n.cycle
	if n.collecting {
		n.routers[id].ev.LinkTraversals++
	}
}

// neighbor is the table-backed equivalent of mesh.Neighbor.
func (n *Network) neighbor(id int, d topology.Dir) (int, bool) {
	nb := n.nbrTab[id*int(topology.NumDirs)+int(d)]
	return int(nb), nb >= 0
}

// linkBusy reports flits in flight on the channel leaving id through dir.
func (n *Network) linkBusy(id int, dir topology.Dir) bool {
	return len(n.links[id][dir]) > 0
}

// creditReturn schedules a credit for the upstream of router id's input
// (port, vc): the mesh neighbor for mesh ports, the NI for the Local
// port. Credits accumulate through the cycle and apply at phase 9.
func (n *Network) creditReturn(id int, port topology.Dir, vc int) {
	n.credits = append(n.credits, creditEvt{router: id, port: port, vc: vc})
}

// creditPending reports whether router id has returned a credit through
// input port port that phase 9 has not applied yet.
func (n *Network) creditPending(id int, port topology.Dir) bool {
	for _, ev := range n.credits {
		if ev.router == id && ev.port == port {
			return true
		}
	}
	return false
}

func (n *Network) applyCredit(ev creditEvt) {
	if ev.port == topology.Local {
		n.nis[ev.router].localCredits[ev.vc]++
		return
	}
	nb, ok := n.neighbor(ev.router, ev.port)
	if !ok {
		n.fail(&fault.ProtocolError{Cycle: n.cycle, Router: ev.router, Msg: "credit return off the mesh"})
		return
	}
	n.routers[nb].outCredits[ev.port.Opposite()][ev.vc]++
}

// addRingUpstreamCredits tops up the ring predecessor's credits toward
// router id on VC vc (wakeup credit restoration, Section 4.3).
func (n *Network) addRingUpstreamCredits(id, vc, add int) {
	pred := n.ring.Pred(id)
	n.routers[pred].outCredits[n.ring.OutDir(pred)][vc] += add
}

// deliverPacket finalises a delivered packet (tail ejected). Poisoned
// packets are dropped — the destination NI rejects the corrupted payload
// and the source's retransmit machinery takes over.
func (n *Network) deliverPacket(p *flit.Packet) {
	n.inFlight--
	n.lastProgress = n.cycle
	if p.IsPoisoned() && n.faults != nil {
		n.faults.dropPoisoned(n, p)
		return
	}
	if n.faults != nil {
		n.faults.report.PacketsDelivered++
	}
	if n.collecting && p.InjectTime >= n.measureFrom {
		n.col.PacketsDelivered++
		n.col.FlitsDelivered += uint64(p.Length)
		n.col.LatencyHist.Add(n.cycle - p.InjectTime)
		n.col.NetworkLatency.Add(float64(n.cycle - p.EnqueueTime))
		n.col.Hops.Add(float64(p.Hops))
	}
	if n.ejectHandler != nil {
		n.ejectHandler(p, n.cycle)
	}
	// Nothing retains a delivered packet: a delivery handler or an inject
	// hook may not, and the retry queue holds only poisoned packets.
	n.pool.PutPacket(p)
}

// Statistic note helpers, gated on measurement.

func (n *Network) notePacketInjected(p *flit.Packet) {
	n.inFlight++
	if n.faults != nil && p.Retries == 0 {
		// Unique payloads only: retransmit clones carry the same payload.
		n.faults.report.PacketsInjected++
	}
	if n.collecting {
		n.col.PacketsInjected++
	}
}

// The helpers below write only the router or NI the event happened at;
// foldStats sums their counts.

// noteSAGrant counts a switch grant at r: the NoRD demand window's
// through-traffic term and, while measuring, r's routed flits.
func (n *Network) noteSAGrant(r *Router) {
	n.lastProgress = n.cycle
	r.saGrantsThisCycle++
	if n.collecting {
		r.ev.SAGrants++
	}
}

// noteVAGrant counts an output VC (or the Local ejection) granted at r.
func (n *Network) noteVAGrant(r *Router) {
	if n.collecting {
		r.ev.VAGrants++
	}
}

// noteBufWrite counts a flit written into one of r's input buffers.
func (n *Network) noteBufWrite(r *Router) {
	if n.collecting {
		r.ev.BufWrites++
	}
}

// noteWakeStall samples how long a head stalled at r for a wakeup.
func (n *Network) noteWakeStall(r *Router, cycles uint64) {
	if n.collecting {
		r.statWakeStall.Add(float64(cycles))
	}
}

// noteMisroute counts a misrouted hop granted at r.
func (n *Network) noteMisroute(r *Router) {
	if n.collecting {
		r.statMisroutes++
	}
	if n.tracer != nil {
		n.tracer.Emit(n.cycle, int32(r.id), obs.KindDetour, obs.CauseNone, 0)
	}
}

// noteEscape counts a packet entering the escape network at r.
func (n *Network) noteEscape(r *Router) {
	if n.collecting {
		r.statEscapes++
	}
	if n.tracer != nil {
		n.tracer.Emit(n.cycle, int32(r.id), obs.KindEscape, obs.CauseNone, 0)
	}
}

// noteBypassHop counts a flit forwarded through the NI bypass of r.
func (n *Network) noteBypassHop(r *Router) {
	n.lastProgress = n.cycle
	if n.collecting {
		r.ev.BypassHops++
	}
	if n.tracer != nil {
		n.tracer.EmitSampled(n.cycle, int32(r.id), obs.KindBypassHop, obs.CauseNone, 0)
	}
}

// noteBypassInject counts a locally injected flit leaving ni over the
// Bypass Outport.
func (n *Network) noteBypassInject(ni *NI) {
	n.lastProgress = n.cycle
	if n.collecting {
		n.routers[ni.id].ev.BypassInjections++
	}
}

// noteBypassEject counts a flit sunk at ni straight off the Bypass Inport.
func (n *Network) noteBypassEject(ni *NI) {
	n.lastProgress = n.cycle
	if n.collecting {
		n.routers[ni.id].ev.BypassEjections++
	}
}

// ranked is one router's demand in a reclassification round.
type ranked struct {
	id     int
	demand uint64
}

// reclassify re-ranks routers by demand integrated since the last round
// and assigns the busiest 3N/8 the performance-centric thresholds.
func (n *Network) reclassify() {
	rs := n.rankScratch[:0]
	for id, ni := range n.nis {
		rs = append(rs, ranked{id: id, demand: ni.demandAccum})
		ni.demandAccum = 0
	}
	slices.SortFunc(rs, func(a, b ranked) int {
		if c := cmp.Compare(b.demand, a.demand); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	k := 3 * len(rs) / 8
	for i, r := range rs {
		n.nis[r.id].setClass(i < k)
	}
	n.rankScratch = rs
}

// PerfCentric reports whether router id currently holds the
// performance-centric thresholds (fixed or dynamically assigned).
func (n *Network) PerfCentric(id int) bool {
	return n.nis[id].threshold == n.p.ThresholdPerf && n.p.ThresholdPerf != n.p.ThresholdPower
}

// RouterReport is one router's spatial statistics over the measured
// interval.
type RouterReport struct {
	ID           int
	X, Y         int
	IdleFraction float64
	OffFraction  float64
	Wakeups      uint64
	GateOffs     uint64
	// MeanOffInterval is the mean length of this router's gated-off
	// stretches in cycles (off time over wakeups, or over gate-offs for a
	// router that never woke; 0 when it never gated).
	MeanOffInterval float64
	FlitsRouted     uint64 // SA grants (normal pipeline traversals)
	BypassFlits     uint64 // flits forwarded through the NI bypass
	PerfCentric     bool
	HardFailed      bool // permanently failed by fault injection
	// Wakeups by cause (they sum to Wakeups): a stalled neighbour's SA
	// request, the local node's injection, NoRD's VC-request threshold,
	// the power-gating watchdog.
	WakeSA       uint64 `json:",omitempty"`
	WakeLocal    uint64 `json:",omitempty"`
	WakeVC       uint64 `json:",omitempty"`
	WakeWatchdog uint64 `json:",omitempty"`
	Misroutes    uint64 `json:",omitempty"` // misrouted hops granted here
	Escapes      uint64 `json:",omitempty"` // packets entering the escape network here
}

// PerRouterReports returns per-router statistics for spatial analysis
// (utilisation heat maps, gating behaviour per location). They count the
// measured interval only, and sum to the collector's totals.
func (n *Network) PerRouterReports() []RouterReport {
	out := make([]RouterReport, len(n.routers))
	cycles := n.col.Cycles
	for id, r := range n.routers {
		x, y := n.topo.Coord(id)
		r.settle()
		off := r.ev.OffCycles
		rep := RouterReport{
			ID: id, X: x, Y: y,
			Wakeups:      r.ev.Wakeups(),
			GateOffs:     r.statGateOffs,
			FlitsRouted:  r.ev.SAGrants,
			BypassFlits:  r.ev.BypassHops,
			PerfCentric:  n.PerfCentric(id),
			HardFailed:   r.hardFailed,
			WakeSA:       r.ev.Wakes[obs.CauseSARequest],
			WakeLocal:    r.ev.Wakes[obs.CauseLocalInject],
			WakeVC:       r.ev.Wakes[obs.CauseVCThreshold],
			WakeWatchdog: r.ev.Wakes[obs.CauseWatchdog],
			Misroutes:    r.statMisroutes,
			Escapes:      r.statEscapes,
		}
		if cycles > 0 {
			rep.IdleFraction = float64(r.idleCycles()) / float64(cycles)
			rep.OffFraction = float64(off) / float64(cycles)
		}
		switch {
		case rep.Wakeups > 0:
			rep.MeanOffInterval = float64(off) / float64(rep.Wakeups)
		case r.statGateOffs > 0:
			rep.MeanOffInterval = float64(off) / float64(r.statGateOffs)
		}
		out[id] = rep
	}
	return out
}

// NumLinks returns the number of unidirectional inter-router channels
// (torus wrap links included).
func (n *Network) NumLinks() int { return n.topo.NumLinks() }
