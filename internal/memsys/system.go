package memsys

import (
	"fmt"
	"math/rand"

	"nord/internal/flit"
	"nord/internal/noc"
	"nord/internal/topology"
)

// msgQueue is a FIFO of messages that become processable at a given cycle.
type msgQueue struct {
	items []queuedMsg
	// next is at most the earliest ready cycle among items (meaningless
	// when the queue is empty): pop scans only once next has passed, and
	// a scan that finds nothing due raises next to the earliest ready
	// cycle.
	next uint64
}

type queuedMsg struct {
	m     *Msg
	ready uint64
}

func (q *msgQueue) push(m *Msg, ready uint64) {
	if len(q.items) == 0 || ready < q.next {
		q.next = ready
	}
	q.items = append(q.items, queuedMsg{m: m, ready: ready})
}

// pop returns the oldest message whose ready time has passed, or nil.
func (q *msgQueue) pop(now uint64) *Msg {
	if !q.due(now) {
		return nil
	}
	earliest := ^uint64(0)
	for i, it := range q.items {
		if it.ready > now {
			earliest = min(earliest, it.ready)
			continue
		}
		if i == 0 {
			q.items = q.items[1:]
		} else {
			q.items = append(q.items[:i], q.items[i+1:]...)
		}
		return it.m
	}
	q.next = earliest
	return nil
}

func (q *msgQueue) len() int { return len(q.items) }

// due reports whether the queue may hold a message ready at now (next is
// a lower bound, so pop can still find nothing).
func (q *msgQueue) due(now uint64) bool { return len(q.items) > 0 && q.next <= now }

// System couples the memory hierarchy to a NoC: cores and L1s at every
// node, an L2/directory bank at every node (shared S-NUCA), and memory
// controllers at the four corners (Table 1).
//
// Step is event-driven: each kind of component has a set of the nodes
// where it may have work, and a cycle steps only those (DESIGN.md §7
// "memsys stepping").
type System struct {
	net  *noc.Network
	prof Profile

	cores []*core
	l1s   []*l1ctrl
	homes []*homectrl
	// mems[node] is the memory controller at that node, nil off the
	// corners.
	mems []*memctrl
	// memHome[node] is the corner controller serving that home bank.
	memHome []int

	// outQ holds packets awaiting injection per node (the NI applies
	// backpressure; protocol queues are unbounded so the protocol never
	// deadlocks on the network interface).
	outQ [][]*flit.Packet
	// delayed holds DRAM responses waiting out the memory latency before
	// entering the network, in release order: every entry waits the same
	// MemLatency, so they mature front first.
	delayed []delayedSend

	// The stepping sets. homeQ, l1Q and memQ hold the nodes whose
	// component has a non-empty input queue; running holds the cores
	// that run or retry an operation; outQs holds the nodes with packets
	// awaiting injection. A component outside its set has nothing to do.
	homeQ, l1Q, memQ, running, outQs topology.NodeSet
	// coresDone counts the cores that retired their quota.
	coresDone int

	// Chip-global workload phase oscillator (see core.inMemPhase).
	phaseRng  *rand.Rand
	memPhase  bool
	nextFlip  uint64
	prevPhase bool
	flipAt    uint64

	msgsSent [numMsgTypes]uint64
}

// memPhaseAt returns the chip-global phase at the given (possibly
// slightly past) cycle: cores observing with a skew see the previous
// phase until their jitter elapses.
func (s *System) memPhaseAt(cycle uint64) bool {
	for s.net.Cycle() >= s.nextFlip {
		s.prevPhase = s.memPhase
		s.flipAt = s.nextFlip
		s.memPhase = !s.memPhase
		mean := s.prof.MemPhaseLen
		if !s.memPhase {
			mean = s.prof.ComputePhaseLen
		}
		if mean < 1 {
			mean = 1
		}
		draw := 1
		for s.phaseRng.Float64() > 1.0/float64(mean) && draw < 100*mean {
			draw++
		}
		s.nextFlip += uint64(draw)
	}
	if cycle < s.flipAt {
		return s.prevPhase
	}
	return s.memPhase
}

// NewSystem builds the memory system on top of an existing network. The
// network must have been built with Classes = flit.NumClasses.
func NewSystem(net *noc.Network, prof Profile, seed int64) (*System, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if net.Params().Classes != flit.NumClasses {
		return nil, fmt.Errorf("memsys: network must carry %d protocol classes, has %d",
			flit.NumClasses, net.Params().Classes)
	}
	n := net.Mesh().N()
	s := &System{
		net:      net,
		prof:     prof,
		cores:    make([]*core, n),
		l1s:      make([]*l1ctrl, n),
		homes:    make([]*homectrl, n),
		mems:     make([]*memctrl, n),
		memHome:  make([]int, n),
		outQ:     make([][]*flit.Packet, n),
		homeQ:    topology.NewNodeSet(n),
		l1Q:      topology.NewNodeSet(n),
		memQ:     topology.NewNodeSet(n),
		running:  topology.NewNodeSet(n),
		outQs:    topology.NewNodeSet(n),
		phaseRng: rand.New(rand.NewSource(seed ^ 0x5eed)),
		memPhase: true,
	}
	s.nextFlip = uint64(max(prof.MemPhaseLen, 1))
	mesh := net.Mesh()
	corners := []int{
		mesh.ID(0, 0),
		mesh.ID(mesh.W-1, 0),
		mesh.ID(0, mesh.H-1),
		mesh.ID(mesh.W-1, mesh.H-1),
	}
	for _, c := range corners {
		s.mems[c] = newMemCtrl(s, c)
	}
	for id := 0; id < n; id++ {
		s.cores[id] = newCore(s, id, seed+int64(id)*7919)
		s.running.Add(id)
		s.l1s[id] = newL1(s, id)
		s.homes[id] = newHome(s, id)
		best, bestD := corners[0], 1<<30
		for _, c := range corners {
			if d := mesh.HopDist(id, c); d < bestD || (d == bestD && c < best) {
				best, bestD = c, d
			}
		}
		s.memHome[id] = best
	}
	net.SetDeliveryHandler(s.onDeliver)
	return s, nil
}

// Profile returns the workload profile in use.
func (s *System) Profile() Profile { return s.prof }

// now returns the current cycle (the network owns the clock).
func (s *System) now() uint64 { return s.net.Cycle() }

// homeOf maps a block to its home L2 bank (address interleaving).
func (s *System) homeOf(block uint64) int {
	return int(block % uint64(len(s.homes)))
}

// memCtrlOf returns the corner memory controller serving a home bank.
func (s *System) memCtrlOf(homeNode int) int { return s.memHome[homeNode] }

// send transmits a protocol message from src to dst, over the NoC when
// the nodes differ and through a short local path otherwise.
func (s *System) send(src, dst int, m *Msg) {
	s.sendDelayed(src, dst, m, 0)
}

// sendDelayed is send with an extra source-side delay (DRAM latency).
func (s *System) sendDelayed(src, dst int, m *Msg, delay uint64) {
	s.msgsSent[m.Type]++
	if src == dst {
		// Local: requester is its own home bank (or the bank hosts its
		// own memory controller). Bypass the NoC with a 1-cycle wire.
		s.dispatch(dst, m, s.now()+delay+1)
		return
	}
	if delay == 0 {
		s.enqueue(src, dst, m)
		return
	}
	// Delayed remote send (memory data): hold locally, then enqueue.
	s.delayed = append(s.delayed, delayedSend{src: src, dst: dst, m: m, at: s.now() + delay})
}

type delayedSend struct {
	src, dst int
	m        *Msg
	at       uint64
}

// enqueue puts a remote message on its source's outbound queue.
func (s *System) enqueue(src, dst int, m *Msg) {
	p := s.net.NewPacket(src, dst, m.Type.Class(), m.Type.Flits())
	p.Payload = m
	s.outQ[src] = append(s.outQ[src], p)
	s.outQs.Add(src)
}

// dispatch routes a message to the right component at a node, applying
// the component's input latency via its own queue.
func (s *System) dispatch(node int, m *Msg, ready uint64) {
	switch m.Type {
	case MsgGetS, MsgGetM, MsgPutM, MsgPutE, MsgDataWB, MsgOwnerAck, MsgMemData:
		s.homes[node].inQ.push(m, ready)
		s.homeQ.Add(node)
	case MsgFwdGetS, MsgFwdGetM, MsgInv, MsgData, MsgInvAck, MsgWBAck:
		s.l1s[node].inQ.push(m, ready)
		s.l1Q.Add(node)
	case MsgMemRead, MsgMemWrite:
		mc := s.mems[node]
		if mc == nil {
			panic(fmt.Sprintf("memsys: node %d has no memory controller", node))
		}
		mc.inQ.push(m, ready)
		s.memQ.Add(node)
	default:
		panic(fmt.Sprintf("memsys: cannot dispatch %s", m))
	}
}

// onDeliver receives packets ejected by the NoC.
func (s *System) onDeliver(p *flit.Packet, cycle uint64) {
	m, ok := p.Payload.(*Msg)
	if !ok {
		panic("memsys: network delivered a packet without a protocol message")
	}
	lat := uint64(0)
	switch m.Type {
	case MsgGetS, MsgGetM, MsgPutM, MsgPutE, MsgDataWB, MsgOwnerAck, MsgMemData:
		lat = uint64(s.prof.L2Latency)
	case MsgFwdGetS, MsgFwdGetM, MsgInv, MsgData, MsgInvAck, MsgWBAck:
		lat = uint64(s.prof.L1Latency)
	}
	s.dispatch(p.Dst, m, cycle+lat)
}

// Tick is Step for tests of healthy systems: it panics on the structured
// failure Step returns.
func (s *System) Tick() {
	if err := s.Step(); err != nil {
		panic(err)
	}
}

// Step advances the whole system one cycle: memory-side components, then
// cores, then injection, then the network. It returns the network's
// structured failure (*fault.DeadlockError, *fault.ProtocolError) rather
// than panicking; the system is frozen from then on.
//
// Each phase walks its stepping set in ascending node order and steps
// the members with something due; a member left with nothing queued (a
// core left waiting or done) leaves the set. Work created within a cycle
// is never due before the next one, so the walks step every component
// that stepping all of them would have changed.
func (s *System) Step() error {
	s.advance()
	return s.net.Step()
}

// advance runs the memory side of one cycle, everything Step does before
// the network steps.
func (s *System) advance() {
	now := s.now()
	// Release matured DRAM sends.
	k := 0
	for k < len(s.delayed) && s.delayed[k].at <= now {
		d := s.delayed[k]
		s.enqueue(d.src, d.dst, d.m)
		k++
	}
	if k == len(s.delayed) {
		s.delayed = s.delayed[:0]
	} else {
		s.delayed = s.delayed[k:]
	}
	for i := s.homeQ.Next(0); i >= 0; i = s.homeQ.Next(i + 1) {
		if h := s.homes[i]; h.inQ.due(now) {
			h.tick()
			if h.inQ.len() == 0 {
				s.homeQ.Remove(i)
			}
		}
	}
	for i := s.l1Q.Next(0); i >= 0; i = s.l1Q.Next(i + 1) {
		if l := s.l1s[i]; l.inQ.due(now) {
			l.tick()
			if l.inQ.len() == 0 {
				s.l1Q.Remove(i)
			}
		}
	}
	for i := s.memQ.Next(0); i >= 0; i = s.memQ.Next(i + 1) {
		if mc := s.mems[i]; mc.inQ.due(now) && mc.nextFree <= now {
			mc.tick()
			if mc.inQ.len() == 0 {
				s.memQ.Remove(i)
			}
		}
	}
	for i := s.running.Next(0); i >= 0; i = s.running.Next(i + 1) {
		c := s.cores[i]
		c.tick()
		if !c.active() {
			s.running.Remove(i)
		}
	}
	// Flush outbound queues into the NIs (per-class backpressure).
	for node := s.outQs.Next(0); node >= 0; node = s.outQs.Next(node + 1) {
		q := s.outQ[node]
		for len(q) > 0 {
			if !s.net.Inject(q[0]) {
				break
			}
			q = q[1:]
		}
		s.outQ[node] = q
		if len(q) == 0 {
			s.outQs.Remove(node)
		}
	}
}

// Done reports whether every core has retired its instruction quota.
func (s *System) Done() bool { return s.coresDone == len(s.cores) }

// Run executes until completion or maxCycles, returning the execution
// time in cycles (the cycle the last core finished) and an error on
// timeout or network failure.
func (s *System) Run(maxCycles uint64) (uint64, error) {
	for s.now() < maxCycles {
		if err := s.Step(); err != nil {
			return 0, err
		}
		if s.Done() {
			return s.now(), nil
		}
	}
	return 0, fmt.Errorf("memsys: workload %q did not finish within %d cycles", s.prof.Name, maxCycles)
}

// Drain ticks until all in-flight protocol traffic has settled (the cores
// may already be done). It returns an error on timeout or network failure.
func (s *System) Drain(maxCycles uint64) error {
	for i := uint64(0); i < maxCycles; i++ {
		if s.quiescent() {
			return nil
		}
		if err := s.Step(); err != nil {
			return err
		}
	}
	return fmt.Errorf("memsys: protocol traffic did not drain within %d cycles", maxCycles)
}

func (s *System) quiescent() bool {
	if s.net.InFlight() != 0 || len(s.delayed) != 0 {
		return false
	}
	for node := range s.outQ {
		if len(s.outQ[node]) != 0 {
			return false
		}
	}
	for _, h := range s.homes {
		if h.inQ.len() != 0 || len(h.busy) != 0 {
			return false
		}
	}
	for _, l := range s.l1s {
		if l.inQ.len() != 0 {
			return false
		}
	}
	for _, mc := range s.mems {
		if mc != nil && mc.inQ.len() != 0 {
			return false
		}
	}
	return true
}

// InstrDone returns total retired instructions (progress metric).
func (s *System) InstrDone() uint64 {
	var sum uint64
	for _, c := range s.cores {
		sum += c.instrDone
	}
	return sum
}

// L1HitRate returns the aggregate L1 hit rate.
func (s *System) L1HitRate() float64 {
	var hits, total uint64
	for _, l := range s.l1s {
		hits += l.c.hits
		total += l.c.hits + l.c.misses
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// MsgCounts returns how many messages of each type were sent; types never
// sent have no entry.
func (s *System) MsgCounts() map[MsgType]uint64 {
	counts := make(map[MsgType]uint64)
	for t, n := range s.msgsSent {
		if n != 0 {
			counts[MsgType(t)] = n
		}
	}
	return counts
}

// MemAccesses returns total DRAM reads and writes.
func (s *System) MemAccesses() (reads, writes uint64) {
	for _, mc := range s.mems {
		if mc != nil {
			reads += mc.reads
			writes += mc.writes
		}
	}
	return reads, writes
}

// DebugDump renders the state of every stalled component, for diagnosing
// wedged simulations in development.
func (s *System) DebugDump() string {
	out := ""
	for id, c := range s.cores {
		if !c.done() {
			out += fmt.Sprintf("core %d: phase=%d instr=%d pendingBlk=%#x pendingSt=%v\n", id, c.phase, c.instrDone, c.pendingBlk, c.pendingSt)
		}
	}
	for id, l := range s.l1s {
		for blk, e := range l.mshr {
			out += fmt.Sprintf("l1 %d mshr blk=%#x store=%v data=%v acks=%d/%d inv=%v\n", id, blk, e.isStore, e.dataArrived, e.acksReceived, e.ackCount, e.invalidated)
		}
		if l.inQ.len() > 0 {
			for _, qm := range l.inQ.items {
				out += fmt.Sprintf("l1 %d inQ: %s ready=%d\n", id, qm.m, qm.ready)
			}
		}
		for blk := range l.wbBuf {
			out += fmt.Sprintf("l1 %d wbBuf blk=%#x\n", id, blk)
		}
		if l.loadBlock != noBlock {
			out += fmt.Sprintf("l1 %d loadBlock=%#x\n", id, l.loadBlock)
		}
	}
	for id, h := range s.homes {
		for blk, fl := range h.busy {
			out += fmt.Sprintf("home %d busy blk=%#x kind=%v req=%d waitMem=%v blockedQ=%d\n", id, blk, fl.kind, fl.req, fl.waitMem, len(h.blocked[blk]))
		}
		if h.inQ.len() > 0 {
			for _, qm := range h.inQ.items {
				out += fmt.Sprintf("home %d inQ: %s ready=%d\n", id, qm.m, qm.ready)
			}
		}
	}
	for _, mc := range s.mems {
		if mc != nil && mc.inQ.len() > 0 {
			out += fmt.Sprintf("memctrl %d inQ=%d\n", mc.node, mc.inQ.len())
		}
	}
	out += fmt.Sprintf("delayed=%d inflight=%d\n", len(s.delayed), s.net.InFlight())
	for node := range s.outQ {
		if len(s.outQ[node]) > 0 {
			out += fmt.Sprintf("outQ %d: %d packets\n", node, len(s.outQ[node]))
		}
	}
	return out
}
