package memsys

import (
	"fmt"

	"nord/internal/topology"
)

// dirState is the directory's view of a block.
type dirState uint8

const (
	dirI dirState = iota
	dirS
	dirM
)

// dirEntry is one directory record. The directory itself is unbounded
// (a standard idealisation); only the L2 *data array* has finite capacity,
// which affects whether fills come from the bank or from memory.
type dirEntry struct {
	state   dirState
	sharers topology.NodeSet
	owner   int
}

// inFlight describes why a block is busy at the home.
type inFlight struct {
	kind    MsgType // the original request being served
	req     int     // its requester
	waitMem bool    // a memory fetch is outstanding
}

// homectrl is one bank of the shared L2 with its directory slice. It is a
// blocking directory: while a transaction for a block is in flight,
// further requests for that block queue.
type homectrl struct {
	sys  *System
	node int
	dir  map[uint64]*dirEntry
	l2   *cache // data-presence/timing array; stateM marks dirty data
	busy map[uint64]*inFlight
	// blocked holds requests queued behind a busy block.
	blocked map[uint64][]*Msg
	inQ     msgQueue

	memFetches uint64
}

func newHome(sys *System, node int) *homectrl {
	return &homectrl{
		sys:     sys,
		node:    node,
		dir:     make(map[uint64]*dirEntry),
		l2:      newCache(sys.prof.L2Sets, sys.prof.L2Ways),
		busy:    make(map[uint64]*inFlight),
		blocked: make(map[uint64][]*Msg),
	}
}

func (h *homectrl) entry(block uint64) *dirEntry {
	e := h.dir[block]
	if e == nil {
		e = &dirEntry{state: dirI, sharers: topology.NewNodeSet(len(h.sys.homes))}
		h.dir[block] = e
	}
	return e
}

// tick processes one due message per cycle (bank bandwidth).
func (h *homectrl) tick() {
	m := h.inQ.pop(h.sys.now())
	if m == nil {
		return
	}
	h.handle(m)
}

func (h *homectrl) handle(m *Msg) {
	switch m.Type {
	case MsgGetS, MsgGetM, MsgPutM, MsgPutE:
		if _, isBusy := h.busy[m.Block]; isBusy {
			h.blocked[m.Block] = append(h.blocked[m.Block], m)
			return
		}
		h.serve(m)
	case MsgDataWB:
		// Demoted owner's copy arrives: the 3-hop GetS completes.
		fl := h.busy[m.Block]
		if fl == nil || fl.kind != MsgGetS {
			panic(fmt.Sprintf("memsys: home %d got unexpected %s", h.node, m))
		}
		h.l2fill(m.Block, true)
		e := h.entry(m.Block)
		e.state = dirS
		// Sharers were set when the forward was sent.
		h.unblock(m.Block)
	case MsgOwnerAck:
		fl := h.busy[m.Block]
		if fl == nil || fl.kind != MsgGetM {
			panic(fmt.Sprintf("memsys: home %d got unexpected %s", h.node, m))
		}
		h.unblock(m.Block)
	case MsgMemData:
		fl := h.busy[m.Block]
		if fl == nil || !fl.waitMem {
			panic(fmt.Sprintf("memsys: home %d got unexpected %s", h.node, m))
		}
		fl.waitMem = false
		h.l2fill(m.Block, false)
		h.serveFromL2(m.Block, fl.kind, fl.req)
	default:
		panic(fmt.Sprintf("memsys: home %d got unexpected %s", h.node, m))
	}
}

// serve starts a fresh transaction for an idle block.
func (h *homectrl) serve(m *Msg) {
	e := h.entry(m.Block)
	switch m.Type {
	case MsgGetS:
		switch e.state {
		case dirI, dirS:
			h.dataToRequester(m.Block, MsgGetS, m.Requester)
		case dirM:
			// 3-hop: the owner sends data to the requester and a copy
			// back here; block until the copy lands.
			h.busy[m.Block] = &inFlight{kind: MsgGetS, req: m.Requester}
			h.sys.send(h.node, e.owner, &Msg{Type: MsgFwdGetS, Block: m.Block, Requester: m.Requester})
			e.sharers.Add(e.owner)
			e.sharers.Add(m.Requester)
			e.owner = -1
		}
	case MsgGetM:
		switch e.state {
		case dirI, dirS:
			h.dataToRequester(m.Block, MsgGetM, m.Requester)
		case dirM:
			h.busy[m.Block] = &inFlight{kind: MsgGetM, req: m.Requester}
			h.sys.send(h.node, e.owner, &Msg{Type: MsgFwdGetM, Block: m.Block, Requester: m.Requester})
			e.state = dirM
			e.owner = m.Requester
		}
	case MsgPutM, MsgPutE:
		if e.state == dirM && e.owner == m.Requester {
			// PutE carries no data: the L2/memory copy is still valid
			// (the E line was never written).
			h.l2fill(m.Block, m.Type == MsgPutM)
			e.state = dirI
			e.owner = -1
			clear(e.sharers)
		}
		// Otherwise the writeback is stale (the block moved on while it
		// was in flight): just ack so the L1 frees its buffer.
		h.sys.send(h.node, m.Requester, &Msg{Type: MsgWBAck, Block: m.Block, Requester: m.Requester})
	}
}

// dataToRequester supplies data for a GetS/GetM whose directory state is
// I or S, fetching from memory when the L2 data array misses.
func (h *homectrl) dataToRequester(block uint64, kind MsgType, req int) {
	if h.l2.lookup(block) == nil {
		h.busy[block] = &inFlight{kind: kind, req: req, waitMem: true}
		h.memFetches++
		h.sys.send(h.node, h.sys.memCtrlOf(h.node), &Msg{Type: MsgMemRead, Block: block, Requester: h.node})
		return
	}
	h.serveFromL2(block, kind, req)
}

// serveFromL2 completes a GetS/GetM with the data present in the bank.
func (h *homectrl) serveFromL2(block uint64, kind MsgType, req int) {
	e := h.entry(block)
	if kind == MsgGetS {
		if e.state == dirI && e.sharers.Empty() {
			// MESI: a solo reader receives the block Exclusive and is
			// tracked as its owner; it may silently upgrade to M.
			h.sys.send(h.node, req, &Msg{Type: MsgData, Block: block, Requester: req, Exclusive: true})
			e.state = dirM
			e.owner = req
			h.unblock(block)
			return
		}
		h.sys.send(h.node, req, &Msg{Type: MsgData, Block: block, Requester: req})
		e.state = dirS
		e.sharers.Add(req)
		h.unblock(block)
		return
	}
	// GetM: invalidate all other sharers (in node order, for determinism);
	// their acks go to the requester.
	acks := 0
	for s := e.sharers.Next(0); s >= 0; s = e.sharers.Next(s + 1) {
		if s != req {
			h.sys.send(h.node, s, &Msg{Type: MsgInv, Block: block, Requester: req})
			acks++
		}
	}
	h.sys.send(h.node, req, &Msg{Type: MsgData, Block: block, Requester: req, AckCount: acks})
	e.state = dirM
	e.owner = req
	clear(e.sharers)
	h.unblock(block)
}

// unblock finishes a transaction and re-dispatches one queued request.
func (h *homectrl) unblock(block uint64) {
	delete(h.busy, block)
	q := h.blocked[block]
	if len(q) == 0 {
		delete(h.blocked, block)
		return
	}
	next := q[0]
	if len(q) == 1 {
		delete(h.blocked, block)
	} else {
		h.blocked[block] = q[1:]
	}
	h.serve(next)
}

// l2fill inserts data into the bank array, writing back a dirty victim.
func (h *homectrl) l2fill(block uint64, dirty bool) {
	st := stateS
	if dirty {
		st = stateM
	}
	if line := h.l2.peek(block); line != nil {
		if dirty {
			line.setState(stateM)
		}
		return
	}
	victim, vstate, evicted := h.l2.insert(block, st)
	if evicted && vstate == stateM {
		h.sys.send(h.node, h.sys.memCtrlOf(h.node), &Msg{Type: MsgMemWrite, Block: victim, Requester: h.node})
	}
}
