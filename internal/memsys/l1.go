package memsys

import "fmt"

// mshrEntry tracks one outstanding L1 miss.
type mshrEntry struct {
	isStore      bool
	dataArrived  bool
	ackCount     int // acks expected, learned from MsgData
	acksReceived int
	issued       uint64 // cycle the request left, for latency accounting
	// invalidated records an Inv processed while this (load) miss was
	// outstanding: the arriving data may be consumed once but must not
	// be cached (the IS_D race of standard MSI).
	invalidated bool
	// exclusive records a GetS answered with the E grant.
	exclusive bool
}

// l1ctrl is a private L1 cache controller implementing the MESI protocol's
// L1 side: hit/miss handling, MSHRs, a store buffer, invalidation and
// forward handling, and a writeback buffer that answers forwards racing
// with evictions.
type l1ctrl struct {
	sys  *System
	node int
	c    *cache
	// mshr maps block -> outstanding transaction; stores counts the
	// entries that are stores (the store buffer's occupancy).
	mshr   map[uint64]*mshrEntry
	stores int
	// wbBuf holds dirty evicted blocks until the home acks the PutM; a
	// forward arriving meanwhile is answered from here.
	wbBuf map[uint64]bool
	// inQ holds delivered messages awaiting the L1's access latency.
	inQ msgQueue
	// loadBlock is the block the core is stalled on (loads are blocking),
	// ^uint64(0) when none.
	loadBlock uint64

	missLatency sampleAcc
}

// sampleAcc is a tiny mean accumulator.
type sampleAcc struct {
	n   uint64
	sum float64
}

func (s *sampleAcc) add(v float64) { s.n++; s.sum += v }

func (s *sampleAcc) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

const noBlock = ^uint64(0)

func newL1(sys *System, node int) *l1ctrl {
	return &l1ctrl{
		sys:       sys,
		node:      node,
		c:         newCache(sys.prof.L1Sets, sys.prof.L1Ways),
		mshr:      make(map[uint64]*mshrEntry),
		wbBuf:     make(map[uint64]bool),
		loadBlock: noBlock,
	}
}

// storeBufFull reports whether another outstanding store fits.
func (l *l1ctrl) storeBufFull() bool {
	return l.stores >= l.sys.prof.StoreBufEntries
}

// accessResult tells the core how a memory operation went.
type accessResult uint8

const (
	// accDone: the op completed (hit) or was issued non-blocking (store
	// miss in the store buffer); the core proceeds.
	accDone accessResult = iota
	// accStallLoad: a load miss is outstanding; the core stalls until
	// loadDone.
	accStallLoad
	// accRetry: a structural hazard (store buffer full, or the block is
	// already in the MSHR for a store); retry next cycle.
	accRetry
)

// access performs a core memory operation against the L1.
func (l *l1ctrl) access(block uint64, store bool) accessResult {
	if l.wbBuf[block] {
		// The block's dirty copy is mid-writeback (state MI_A): issuing
		// a new request now could make the home forward back to us while
		// we are the stale owner. Wait for the WBAck.
		return accRetry
	}
	if _, busy := l.mshr[block]; busy {
		// A transaction for this block is already outstanding
		// (simplified: no coalescing).
		if store {
			return accRetry
		}
		l.loadBlock = block
		return accStallLoad
	}
	line := l.c.lookup(block)
	if line != nil {
		if !store || line.state() == stateM {
			return accDone // read hit, or write hit in M
		}
		if line.state() == stateE {
			// Silent E->M upgrade: the whole point of the Exclusive
			// state — private read-then-write data costs no coherence
			// traffic.
			line.setState(stateM)
			return accDone
		}
		// Write hit in S: upgrade, non-blocking via the store buffer.
		if l.storeBufFull() {
			return accRetry
		}
		l.startMiss(block, true)
		return accDone
	}
	if store {
		if l.storeBufFull() {
			return accRetry
		}
		l.startMiss(block, true)
		return accDone
	}
	l.startMiss(block, false)
	l.loadBlock = block
	return accStallLoad
}

func (l *l1ctrl) startMiss(block uint64, store bool) {
	l.mshr[block] = &mshrEntry{isStore: store, issued: l.sys.now()}
	t := MsgGetS
	if store {
		t = MsgGetM
		l.stores++
	}
	l.sys.send(l.node, l.sys.homeOf(block), &Msg{Type: t, Block: block, Requester: l.node})
}

// tick processes due messages (up to two per cycle: one fill, one probe).
func (l *l1ctrl) tick() {
	for i := 0; i < 2; i++ {
		m := l.inQ.pop(l.sys.now())
		if m == nil {
			return
		}
		l.handle(m)
	}
}

func (l *l1ctrl) handle(m *Msg) {
	// A forward can reach us before the data that makes us owner (the
	// home serialised our GetM first). Stall it until our transaction
	// completes; responses never wait on forwards, so this cannot cycle.
	if m.Type == MsgFwdGetS || m.Type == MsgFwdGetM {
		if _, pending := l.mshr[m.Block]; pending {
			l.inQ.push(m, l.sys.now()+1)
			return
		}
	}
	switch m.Type {
	case MsgData:
		e := l.mshr[m.Block]
		if e == nil {
			panic(fmt.Sprintf("memsys: L1 %d got %s without MSHR", l.node, m))
		}
		e.dataArrived = true
		e.ackCount = m.AckCount
		e.exclusive = m.Exclusive
		l.maybeComplete(m.Block, e)
	case MsgInvAck:
		e := l.mshr[m.Block]
		if e == nil {
			panic(fmt.Sprintf("memsys: L1 %d got %s without MSHR", l.node, m))
		}
		e.acksReceived++
		l.maybeComplete(m.Block, e)
	case MsgFwdGetS:
		// We own the block (cache E/M or writeback buffer): send data to
		// the requester and a copy back to the home; demote to S. The
		// Dirty flag tells the home whether its L2 copy went stale (a
		// silent E->M upgrade may have happened, so E-granted blocks
		// report their actual state).
		dirty := true
		if line := l.c.peek(m.Block); line != nil && line.state() >= stateE {
			dirty = line.state() == stateM
			line.setState(stateS)
		} else if !l.wbBuf[m.Block] {
			panic(fmt.Sprintf("memsys: L1 %d got %s but owns nothing", l.node, m))
		}
		l.sys.send(l.node, m.Requester, &Msg{Type: MsgData, Block: m.Block, Requester: m.Requester})
		l.sys.send(l.node, l.sys.homeOf(m.Block), &Msg{Type: MsgDataWB, Block: m.Block, Requester: m.Requester, Dirty: dirty})
	case MsgFwdGetM:
		if line := l.c.peek(m.Block); line != nil && line.state() >= stateE {
			l.c.invalidate(m.Block)
		} else if !l.wbBuf[m.Block] {
			panic(fmt.Sprintf("memsys: L1 %d got %s but owns nothing", l.node, m))
		}
		l.sys.send(l.node, m.Requester, &Msg{Type: MsgData, Block: m.Block, Requester: m.Requester})
		l.sys.send(l.node, l.sys.homeOf(m.Block), &Msg{Type: MsgOwnerAck, Block: m.Block, Requester: m.Requester})
	case MsgInv:
		// Invalidate (the line may already be gone via silent eviction)
		// and ack the requester directly. An Inv overlapping our own
		// outstanding load miss kills the incoming copy too; an Inv
		// overlapping our GetM belongs to the previous write epoch and
		// does not affect the ownership our data will grant.
		l.c.invalidate(m.Block)
		if e := l.mshr[m.Block]; e != nil && !e.isStore {
			e.invalidated = true
		}
		l.sys.send(l.node, m.Requester, &Msg{Type: MsgInvAck, Block: m.Block, Requester: m.Requester})
	case MsgWBAck:
		delete(l.wbBuf, m.Block)
	default:
		panic(fmt.Sprintf("memsys: L1 %d got unexpected %s", l.node, m))
	}
}

// maybeComplete retires an MSHR whose data and acks have all arrived.
func (l *l1ctrl) maybeComplete(block uint64, e *mshrEntry) {
	if !e.dataArrived || e.acksReceived < e.ackCount {
		return
	}
	delete(l.mshr, block)
	if e.isStore {
		l.stores--
	}
	l.missLatency.add(float64(l.sys.now() - e.issued))
	if e.invalidated {
		// The copy was invalidated in flight: the load consumes the
		// data once but nothing is cached.
		if l.loadBlock == block {
			l.loadBlock = noBlock
			l.sys.cores[l.node].loadDone()
		}
		return
	}
	st := stateS
	if e.isStore {
		st = stateM
	} else if e.exclusive {
		st = stateE
	}
	if line := l.c.peek(block); line != nil {
		// Upgrade completion: the line is already resident in S.
		line.setState(st)
	} else {
		victimBlock, victimState, evicted := l.c.insert(block, st)
		if evicted && victimState >= stateE {
			// Owned eviction: notify the home through the writeback
			// buffer — dirty data for M, a 1-flit clean notice for E
			// (the directory must stop considering us the owner).
			t := MsgPutM
			if victimState == stateE {
				t = MsgPutE
			}
			l.wbBuf[victimBlock] = true
			l.sys.send(l.node, l.sys.homeOf(victimBlock), &Msg{Type: t, Block: victimBlock, Requester: l.node})
		}
	}
	if l.loadBlock == block {
		// Any completion for this block leaves it resident, satisfying a
		// stalled load.
		l.loadBlock = noBlock
		l.sys.cores[l.node].loadDone()
	}
}
