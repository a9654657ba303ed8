package noc

// The sharded parallel tick kernel. Params.Parallelism partitions the
// mesh (and the NoRD bypass ring, which the comb-serpentine order keeps
// mostly shard-local) into contiguous spatial domains [lo,hi) of node
// IDs, each owned by one pinned worker goroutine. Every per-cycle phase
// of Network.Step runs shard-locally over the owner's slice of the
// active worklist; anything that would cross a shard boundary — link
// deliveries, tracer events, poisoned-packet drops, wake activations,
// credit returns — is recorded in per-shard buffers and committed at a
// serial merge point between phases, in a fixed order keyed by
// (source node, port, queue position), which is exactly the order the
// serial kernel would have produced. The serial kernel is the P=1
// special case of the same code path (one shard, inline sections, no
// deferral), so reports are bit-identical across parallelism levels.

import (
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"nord/internal/flit"
	"nord/internal/obs"
	"nord/internal/stats"
	"nord/internal/topology"
)

// Section identifiers for the parallel phases of one cycle. Each maps to
// one fused group of the serial kernel's numbered phases.
const (
	secLinks  = iota // phase 1: link traversal completion
	secNode          // phases 2-4: NI wire deliveries, router ST, NI pipelines
	secRouter        // phases 5-7: router SA, VA, RC
	secStats         // phases 10-11: per-node accounting + deactivation sweep
)

// defEvent is a tracer event deferred inside a parallel section, replayed
// in key order at the next merge so the tracer (a single-goroutine sink
// with order-sensitive sampling state) sees the serial emission order.
type defEvent struct {
	key     uint64
	arg     uint64
	router  int32
	kind    obs.Kind
	cause   obs.Cause
	sampled bool
}

// xDeliver is a link delivery whose target lives in another shard,
// committed serially at the links merge. key encodes (source, port,
// queue position), the serial kernel's delivery order.
type xDeliver struct {
	key  uint64
	from int32
	dir  int8
	f    *flit.Flit
}

// pendingDrop is a poisoned packet that reached its destination inside a
// parallel section; the retransmit scheduling mutates injector-global
// state, so it replays serially in key order.
type pendingDrop struct {
	key uint64
	pkt *flit.Packet
}

// shard owns the contiguous node range [lo,hi) and everything a worker
// mutates without synchronisation: its slice of the active worklist, a
// private statistics collector and flit pool, the route-computation
// scratch, and the deferral buffers drained at merge points.
type shard struct {
	idx    int
	lo, hi int

	// ids is the reusable snapshot of this shard's active worklist.
	ids []int

	// col accumulates every statistic incremented inside a section;
	// foldStats merges it into the master collector at serial points.
	col *stats.NoC

	// pool recycles packets and flits created or ejected in this shard.
	// flit.Level rebalances the free-lists periodically, since packets
	// born in one shard are often recycled in another.
	pool flit.Pool

	// candScratch is the per-shard route-computation scratch (was global
	// when the kernel was single-threaded).
	candScratch []cand

	// Deferral buffers, committed at merge points.
	credits   []creditEvt
	activates []int32
	events    []defEvent
	drops     []pendingDrop
	xout      []xDeliver

	// Per-cycle accumulators folded into the network at the epilogue.
	inFlightDelta int
	progressed    bool

	// err latches the shard's first structured error, folded into the
	// network's latch at each merge (so the P=1 first-error is the
	// chronological one, exactly as before).
	err error

	// Fault-report deltas (the report struct itself is injector-global).
	repCorrupt   uint64
	repPoisoned  uint64
	repDelivered uint64

	// evBase/evSeq form the deferred-event key cursor: the per-node (or
	// per-delivery) base is set by the section loop, and evSeq numbers
	// the events emitted under that base in program order.
	evBase uint64
	evSeq  uint32
}

// nextEvKey returns the next deferred-event key under the current base.
func (sh *shard) nextEvKey() uint64 {
	k := sh.evBase | uint64(sh.evSeq)
	sh.evSeq++
	return k
}

// shardFor returns the shard owning node id.
func (n *Network) shardFor(id int) *shard { return n.shards[n.shardOf[id]] }

// failSh latches a structured error raised inside a section into the
// executing shard; merges fold it into the network's first-error latch.
func (n *Network) failSh(sh *shard, err error) {
	if sh.err == nil {
		sh.err = err
	}
}

// activateFrom activates node id from shard sh's context: directly when
// the node is shard-local (or the kernel is serial), deferred to the
// router merge otherwise. Activation is idempotent, so the merge applies
// duplicates harmlessly.
func (n *Network) activateFrom(sh *shard, id int) {
	if n.shardOf[id] == int32(sh.idx) {
		n.activate(id)
		return
	}
	sh.activates = append(sh.activates, int32(id))
}

// spinBarrier is a sense-reversing barrier for the per-phase rendezvous.
// Phases are microseconds long, so on a machine with a core per shard the
// waiters spin hot for a short budget before parking on the condvar; on an
// oversubscribed machine (fewer cores than shards — including the
// single-CPU degenerate case, where a spinning waiter would starve the
// very worker it waits for) they park immediately.
type spinBarrier struct {
	total int32
	count atomic.Int32
	gen   atomic.Uint32
	spin  int32
	mu    sync.Mutex
	cond  *sync.Cond
}

func (b *spinBarrier) init(total int) {
	b.total = int32(total)
	b.cond = sync.NewCond(&b.mu)
	if runtime.NumCPU() >= total {
		b.spin = 1 << 13
	}
}

func (b *spinBarrier) wait() {
	g := b.gen.Load()
	if b.count.Add(1) == b.total {
		b.count.Store(0)
		// The generation bump is published under the lock so a waiter
		// cannot check it, miss the change, and then sleep through the
		// broadcast.
		b.mu.Lock()
		b.gen.Add(1)
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for i := int32(0); i < b.spin; i++ {
		if b.gen.Load() != g {
			return
		}
	}
	b.mu.Lock()
	for b.gen.Load() == g {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// parKernel is the running worker fleet: sec carries the section to run
// across the start barrier (written by the coordinator strictly between
// barrier generations; a negative value shuts the workers down).
type parKernel struct {
	bar spinBarrier
	sec int
}

// spawnWorkers starts one pinned worker per non-coordinator shard.
func (n *Network) spawnWorkers() {
	par := &parKernel{}
	par.bar.init(len(n.shards))
	n.par = par
	for i := 1; i < len(n.shards); i++ {
		go n.worker(par, n.shards[i])
	}
}

// worker is the per-shard goroutine: rendezvous, run the announced
// section over the owned shard, rendezvous again so the coordinator can
// merge. OS-thread pinning keeps the hot spin from migrating.
func (n *Network) worker(par *parKernel, sh *shard) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for {
		par.bar.wait()
		sec := par.sec
		if sec < 0 {
			par.bar.wait()
			return
		}
		n.runSection(sec, sh)
		par.bar.wait()
	}
}

// Close stops the parallel worker goroutines. It is a no-op for serial
// networks (or when Step has not run yet) and is idempotent; a later
// Step respawns the fleet. Callers that create parallel networks should
// Close them when done — the workers pin OS threads and keep the network
// reachable until shut down.
func (n *Network) Close() {
	par := n.par
	if par == nil {
		return
	}
	n.par = nil
	par.sec = -1
	par.bar.wait()
	par.bar.wait()
}

// runPhase executes one section across all shards: through the worker
// fleet when it is running, inline (shard order, which is ascending node
// order) otherwise. A delivery handler executes user code on the eject
// path, so its presence degrades the phase to inline execution.
func (n *Network) runPhase(sec int) {
	if par := n.par; par != nil && n.ejectHandler == nil {
		par.sec = sec
		par.bar.wait()
		n.runSection(sec, n.shards[0])
		par.bar.wait()
		return
	}
	for _, sh := range n.shards {
		n.runSection(sec, sh)
	}
}

// shardActive snapshots shard sh's slice of the active worklist in
// ascending node order. Boundary words of the bitset are shared with
// neighboring shards, so loads are atomic and out-of-range bits masked.
func (n *Network) shardActive(sh *shard) []int {
	ids := sh.ids[:0]
	loW := sh.lo >> 6
	hiW := (sh.hi + 63) >> 6
	for w := loW; w < hiW; w++ {
		word := atomic.LoadUint64(&n.activeMask[w])
		base := w << 6
		if base < sh.lo {
			word &^= (uint64(1) << uint(sh.lo-base)) - 1
		}
		if hiBits := sh.hi - base; hiBits < 64 {
			word &= (uint64(1) << uint(hiBits)) - 1
		}
		for word != 0 {
			ids = append(ids, base+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	sh.ids = ids
	return ids
}

// runSection executes one fused phase group over shard sh. Within a
// section, every write lands in sh-owned state (node state of [lo,hi),
// the shard's collector, pool and deferral buffers); the only cross-node
// reads are power states, which change exclusively in the serial phases.
func (n *Network) runSection(sec int, sh *shard) {
	switch sec {
	case secLinks:
		for _, id := range n.shardActive(sh) {
			if n.linkCount[id] > 0 {
				n.deliverNodeLinks(sh, id)
			}
		}
	case secNode:
		for _, id := range n.shardActive(sh) {
			sh.evBase = uint64(id) << 32
			sh.evSeq = 0
			ni := n.nis[id]
			ni.tickDeliver()
			n.routers[id].tickST()
			ni.tick()
		}
	case secRouter:
		for _, id := range n.shardActive(sh) {
			sh.evBase = uint64(id) << 32
			sh.evSeq = 0
			r := n.routers[id]
			r.tickSA()
			r.tickVA()
			r.tickRC()
		}
	case secStats:
		for _, id := range n.shardActive(sh) {
			if n.collecting {
				n.routers[id].sampleIdle()
			}
			// Deactivation sweep, fused into the stats walk: nodes with
			// no remaining work leave the worklist; activate() restores
			// them when an event touches them again.
			if n.sparse && !n.nodeNeedsTick(id) {
				atomic.AndUint64(&n.activeMask[id>>6], ^(uint64(1) << (uint(id) & 63)))
			}
		}
	}
}

// mergeLinks commits cross-shard link deliveries in (shard, source,
// port, queue position) order — the serial kernel's delivery order up to
// commutative reordering against in-shard deliveries (distinct target
// state) — then replays deferred events and drops.
func (n *Network) mergeLinks() {
	for _, sh := range n.shards {
		for i := range sh.xout {
			x := &sh.xout[i]
			to := n.nbrTab[int(x.from)*int(topology.NumDirs)+int(x.dir)]
			dst := n.shards[n.shardOf[to]]
			dst.evBase, dst.evSeq = x.key, 0
			n.deliverFlit(int(x.from), topology.Dir(x.dir), x.f)
			x.f = nil
		}
		sh.xout = sh.xout[:0]
	}
	n.replayDeferred()
}

// mergeNode runs after the NI/ST section: the ring-credit restore (which
// writes the ring predecessor's credit state, potentially cross-shard)
// and the deferred replays.
func (n *Network) mergeNode() {
	n.restoreRingCredits()
	n.replayDeferred()
}

// mergeRouter applies deferred cross-shard wake activations in shard
// order (activation is idempotent and only sets a bit, so order across
// distinct nodes is immaterial), then the deferred replays.
func (n *Network) mergeRouter() {
	for _, sh := range n.shards {
		for _, id := range sh.activates {
			n.activate(int(id))
		}
		sh.activates = sh.activates[:0]
	}
	n.replayDeferred()
}

// restoreRingCredits restores withheld ring credits for VCs whose
// mid-bypass packet has fully drained after a wakeup (Section 4.3). In
// the serial kernel this ran inside each NI's bypass tick; it is hoisted
// to this serial point because it writes the ring predecessor's credit
// state, which may live in another shard. Every input to the condition
// is frozen once the owner's NI section finishes, and the NI section
// activates no nodes, so walking the active worklist here in ascending
// order restores exactly the credits the serial kernel restored.
func (n *Network) restoreRingCredits() {
	if n.ring == nil {
		return
	}
	for _, id := range n.collectActive() {
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

// replayDeferred drains every shard's deferred tracer events and
// poisoned-packet drops in key order (the serial emission order) and
// folds shard errors into the network's first-error latch. Events and
// drops are only ever deferred when the kernel is sharded; the serial
// kernel emits inline.
func (n *Network) replayDeferred() {
	if n.sharded {
		if n.tracer != nil {
			n.replayEvents()
		}
		if n.faults != nil {
			n.replayDrops()
		}
	}
	for _, sh := range n.shards {
		if sh.err != nil {
			n.fail(sh.err)
			sh.err = nil
		}
	}
}

func (n *Network) replayEvents() {
	evs := n.evScratch[:0]
	for _, sh := range n.shards {
		evs = append(evs, sh.events...)
		sh.events = sh.events[:0]
	}
	if len(evs) > 1 {
		sort.Slice(evs, func(i, j int) bool { return evs[i].key < evs[j].key })
	}
	for i := range evs {
		e := &evs[i]
		if e.sampled {
			n.tracer.EmitSampled(n.cycle, e.router, e.kind, e.cause, e.arg)
		} else {
			n.tracer.Emit(n.cycle, e.router, e.kind, e.cause, e.arg)
		}
	}
	n.evScratch = evs[:0]
}

func (n *Network) replayDrops() {
	drops := n.dropScratch[:0]
	for _, sh := range n.shards {
		drops = append(drops, sh.drops...)
		sh.drops = sh.drops[:0]
	}
	if len(drops) > 1 {
		sort.Slice(drops, func(i, j int) bool { return drops[i].key < drops[j].key })
	}
	for i := range drops {
		n.faults.dropPoisoned(n, drops[i].pkt)
		drops[i].pkt = nil
	}
	n.dropScratch = drops[:0]
}

// traceEvent routes a tracer emission from shard sh's context: deferred
// (with the next key under the shard's cursor) when the kernel is
// sharded, inline otherwise. Callers check n.tracer != nil.
func (n *Network) traceEvent(sh *shard, router int32, kind obs.Kind, cause obs.Cause, arg uint64, sampled bool) {
	if n.sharded {
		sh.events = append(sh.events, defEvent{
			key: sh.nextEvKey(), arg: arg, router: router,
			kind: kind, cause: cause, sampled: sampled,
		})
		return
	}
	if sampled {
		n.tracer.EmitSampled(n.cycle, router, kind, cause, arg)
	} else {
		n.tracer.Emit(n.cycle, router, kind, cause, arg)
	}
}

// foldStats merges every shard collector's samples into the master, then
// derives every datapath count from the routers' and NIs' own records,
// settling each router's open power-state stretch first and counting its
// open idle run without closing it, so a fold changes nothing a later one
// reads. Merging is exact (sums of integers, integer-valued samples), so
// the fold is bit-identical to serial accumulation regardless of shard
// count.
func (n *Network) foldStats() {
	for _, sh := range n.shards {
		n.col.Merge(sh.col)
		sh.col.Reset()
	}
	c := n.col
	c.Wakeups, c.GateOffs, c.SAArbs, c.BypassHops = 0, 0, 0, 0
	c.MisroutedHops, c.EscapedPackets = 0, 0
	c.RouterOnCycles, c.RouterOffCycles, c.RouterWakingCycles = 0, 0, 0
	c.IdleCycles = 0
	c.VAArbs, c.BufWrites, c.LinkTraversals, c.WakeupStall = 0, 0, 0, stats.Sample{}
	c.NIVCRequests, c.BypassInjections, c.BypassEjections, c.LocalFlits = 0, 0, 0, 0
	for _, r := range n.routers {
		r.settle()
		c.Wakeups += r.wakeups()
		c.GateOffs += r.statGateOffs
		c.SAArbs += r.statSAGrants
		c.BypassHops += r.statBypassFlits
		c.MisroutedHops += r.statMisroutes
		c.EscapedPackets += r.statEscapes
		c.RouterOnCycles += r.resid[powerOn]
		c.RouterOffCycles += r.resid[powerOff]
		c.RouterWakingCycles += r.resid[powerWaking]
		c.IdleCycles += r.idleCycles()
		c.VAArbs += r.statVAGrants
		c.BufWrites += r.statBufWrites
		c.LinkTraversals += r.statLinkFlits
		c.WakeupStall.Merge(r.statWakeStall)
	}
	for _, ni := range n.nis {
		c.NIVCRequests += ni.statVCRequests
		c.BypassInjections += ni.statBypassInjects
		c.BypassEjections += ni.statBypassEjects
		c.LocalFlits += ni.statLocalFlits
	}
	// Every router spends each measured cycle either idle or busy.
	c.BusyCycles = c.Cycles*uint64(len(n.routers)) - c.IdleCycles
}
