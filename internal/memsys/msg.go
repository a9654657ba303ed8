// Package memsys is the full-system workload substrate standing in for
// the paper's Simics/GEMS stack (Section 5.1): per-node in-order cores
// issuing synthetic address streams, private L1 caches, a shared
// address-interleaved L2 with a blocking MSI directory (a faithful
// simplification of the MOESI traffic shapes: requests, data replies,
// 3-hop forwards, invalidations, acks and writebacks), and memory
// controllers at the four mesh corners. Its purpose is to generate the
// coherence traffic the NoC sees under multithreaded workloads and to
// measure execution time (Figure 12); it is not an ISA simulator.
package memsys

import (
	"fmt"

	"nord/internal/flit"
)

// MsgType enumerates the coherence protocol messages.
type MsgType uint8

const (
	// Requests (class Request, 1 flit except PutM which carries data).
	MsgGetS MsgType = iota // read miss
	MsgGetM                // write miss / upgrade
	MsgPutM                // dirty writeback (data)
	MsgPutE                // clean exclusive eviction notice (no data)
	// Forwards (class Forward, 1 flit).
	MsgFwdGetS // home -> owner: send data to requester, demote to S
	MsgFwdGetM // home -> owner: send data to requester, invalidate
	MsgInv     // home -> sharer: invalidate, ack the requester
	// Responses (class Response; data messages are 5 flits, acks 1).
	MsgData     // data to requester (carries ackCount for GetM)
	MsgDataWB   // demoted owner's data copy back to home
	MsgInvAck   // sharer -> requester invalidation ack
	MsgOwnerAck // old owner -> home: 3-hop transfer complete
	MsgWBAck    // home -> evicting L1: writeback accepted
	// Memory controller traffic (requests/responses between home banks
	// and the corner controllers).
	MsgMemRead  // home -> memctrl (1 flit, class Request)
	MsgMemWrite // home -> memctrl (data, class Request)
	MsgMemData  // memctrl -> home (data, class Response)

	numMsgTypes = iota
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	names := [...]string{
		"GetS", "GetM", "PutM", "PutE",
		"FwdGetS", "FwdGetM", "Inv",
		"Data", "DataWB", "InvAck", "OwnerAck", "WBAck",
		"MemRead", "MemWrite", "MemData",
	}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// Class returns the protocol class (virtual network) a message travels on.
func (t MsgType) Class() flit.Class {
	switch t {
	case MsgGetS, MsgGetM, MsgPutM, MsgPutE, MsgMemRead, MsgMemWrite:
		return flit.ClassRequest
	case MsgFwdGetS, MsgFwdGetM, MsgInv:
		return flit.ClassForward
	default:
		return flit.ClassResponse
	}
}

// Flits returns the packet length: data-bearing messages are 5 flits
// (64-byte block + header over 128-bit links), control messages 1 flit
// (the paper's bimodal lengths, Section 5.2).
func (t MsgType) Flits() int {
	switch t {
	case MsgData, MsgDataWB, MsgPutM, MsgMemWrite, MsgMemData:
		return 5
	default:
		return 1
	}
}

// Msg is one coherence message; it rides in flit.Packet.Payload.
type Msg struct {
	Type MsgType
	// Block is the cache-block address (block number, not bytes).
	Block uint64
	// Requester is the L1/node the transaction is for (may differ from
	// the packet source for forwards and 3-hop data).
	Requester int
	// AckCount rides on MsgData for GetM: invalidation acks to expect.
	AckCount int
	// Dirty marks data that must eventually be written back.
	Dirty bool
	// Exclusive marks a GetS data reply granting the E state (no other
	// sharer existed; the requester may silently upgrade to M).
	Exclusive bool
}

// String implements fmt.Stringer.
func (m *Msg) String() string {
	return fmt.Sprintf("%s blk=%#x req=%d acks=%d", m.Type, m.Block, m.Requester, m.AckCount)
}
