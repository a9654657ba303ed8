// Package flit defines the message units transported by the on-chip
// network: packets and the flow-control digits (flits) they are broken
// into, together with the virtual-channel classes used by the routing
// algorithms (adaptive vs escape resources, per Duato's protocol) and the
// protocol classes used by the coherence substrate (request vs response).
package flit

import "fmt"

// Kind distinguishes the position of a flit inside its packet. Single-flit
// packets carry a HeadTail flit that is simultaneously head and tail.
type Kind uint8

const (
	// Head is the first flit of a multi-flit packet. It carries routing
	// information and triggers route computation and VC allocation.
	Head Kind = iota
	// Body is an intermediate flit of a multi-flit packet.
	Body
	// Tail is the final flit of a multi-flit packet; it deallocates the
	// virtual channel it travelled on.
	Tail
	// HeadTail marks a single-flit packet (head and tail at once).
	HeadTail
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Head:
		return "head"
	case Body:
		return "body"
	case Tail:
		return "tail"
	case HeadTail:
		return "head+tail"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// IsHead reports whether the flit leads a packet (Head or HeadTail).
func (k Kind) IsHead() bool { return k == Head || k == HeadTail }

// IsTail reports whether the flit ends a packet (Tail or HeadTail).
func (k Kind) IsTail() bool { return k == Tail || k == HeadTail }

// Class is the protocol class of a packet. Wormhole networks supporting
// coherence protocols separate message classes onto disjoint virtual
// channel sets to avoid protocol-level (request-reply) deadlock. The paper
// configures "4 VCs per protocol class" (Table 1).
type Class uint8

const (
	// ClassRequest carries coherence requests (GetS/GetM/Upgrade) and
	// other control messages that may generate responses.
	ClassRequest Class = iota
	// ClassResponse carries data replies, acks and writebacks, which are
	// always sunk and never generate further network messages.
	ClassResponse
	// ClassForward carries directory-initiated forwards and invalidations
	// (FwdGetS/FwdGetM/Inv). Consuming a forward may generate responses
	// but never requests or forwards, so the ordering request < forward <
	// response keeps the protocol deadlock-free.
	ClassForward
	// NumClasses is the number of protocol classes modelled.
	NumClasses = 3
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassRequest:
		return "request"
	case ClassResponse:
		return "response"
	case ClassForward:
		return "forward"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Packet is a message injected by a node. A packet is serialised into
// len==Length flits at injection time.
type Packet struct {
	// ID uniquely identifies the packet within a simulation run.
	ID uint64
	// Src and Dst are node identifiers (router indices).
	Src, Dst int
	// Class is the protocol class, selecting the VC set used.
	Class Class
	// Length is the number of flits (the paper uses 1 for short packets
	// and 5 for long/data packets).
	Length int
	// InjectTime is the cycle the packet was created by the source node;
	// EnqueueTime is the cycle its head flit entered the network (left
	// the NI injection queue). Latency statistics use InjectTime so that
	// source queueing is included, as is standard.
	InjectTime  uint64
	EnqueueTime uint64
	// Misroutes counts non-minimal hops taken on adaptive resources
	// (NoRD caps this before forcing the packet onto escape resources).
	Misroutes int
	// Escaped records that the packet has been forced onto escape
	// resources; once escaped it must stay there until delivery.
	Escaped bool
	// EscapeVC is the escape virtual channel (within the escape set) the
	// packet currently uses. NoRD's ring escape switches from VC 0 to
	// VC 1 when crossing the dateline to break the ring's cyclic channel
	// dependence.
	EscapeVC int
	// Payload optionally carries a protocol-level message (e.g. a
	// coherence transaction from the memory-system substrate). The
	// network never inspects it.
	Payload any
	// Hops is incremented once per router traversed (normal pipeline or
	// bypass), for hop-count statistics.
	Hops int
	// Retries counts end-to-end retransmissions of this payload: 0 for an
	// original transmission, k for the k-th retransmit clone issued by the
	// fault-recovery machinery.
	Retries int
	// poisoned marks that a flit of this packet failed its checksum
	// verification. A poisoned packet keeps traversing the network so
	// flow-control state stays consistent, but is dropped at its
	// destination NI instead of delivered; the source retransmits.
	poisoned bool

	// pooled marks packets issued by a Pool; only those may be recycled,
	// so externally constructed packets (tests, retransmit clones) are
	// never mutated behind their owner's back.
	pooled bool
}

// Poison marks the packet corrupt.
func (p *Packet) Poison() { p.poisoned = true }

// IsPoisoned reports whether any flit of the packet failed checksum
// verification.
func (p *Packet) IsPoisoned() bool { return p.poisoned }

// String implements fmt.Stringer.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d %d->%d %s len=%d", p.ID, p.Src, p.Dst, p.Class, p.Length)
}

// Flit is one flow-control digit of a packet. All flits of a packet share
// the *Packet pointer; only the head flit's fields are consulted for
// routing.
type Flit struct {
	Packet *Packet
	Kind   Kind
	// Seq is the flit's index within its packet (0-based).
	Seq int
	// VC is the virtual channel the flit currently occupies/was allocated
	// at the downstream input port. It is rewritten hop by hop.
	VC int
	// Checksum protects the flit's stable identity (packet ID, endpoints,
	// sequence) against transient link faults. It is set at serialisation
	// and verified at every hop; a mismatch poisons the packet for
	// end-to-end retransmission. The VC field is excluded: it is legally
	// rewritten hop by hop.
	Checksum uint32

	// pooled marks flits issued by a Pool; only those may be recycled.
	pooled bool
}

// Checksum computes the flit's reference checksum (FNV-1a over the
// packet ID, endpoints and flit sequence).
func (f *Flit) ComputeChecksum() uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= uint32(v & 0xff)
			h *= prime32
			v >>= 8
		}
	}
	mix(f.Packet.ID)
	mix(uint64(uint32(f.Packet.Src))<<32 | uint64(uint32(f.Packet.Dst)))
	mix(uint64(f.Seq)<<8 | uint64(f.Kind))
	return h
}

// ChecksumOK reports whether the stored checksum matches the flit's
// contents.
func (f *Flit) ChecksumOK() bool { return f.Checksum == f.ComputeChecksum() }

// Corrupt damages the stored checksum, modelling a transient link fault.
func (f *Flit) Corrupt() { f.Checksum ^= 0xdeadbeef }

// String implements fmt.Stringer.
func (f *Flit) String() string {
	return fmt.Sprintf("%s[%d] of %s on vc%d", f.Kind, f.Seq, f.Packet, f.VC)
}

// Retransmit builds the next end-to-end retransmission of a poisoned
// packet: same endpoints, class and length under a fresh identity (the
// caller supplies the new unique ID), with the retry count advanced.
func Retransmit(p *Packet, id uint64) *Packet {
	return &Packet{
		ID:      id,
		Src:     p.Src,
		Dst:     p.Dst,
		Class:   p.Class,
		Length:  p.Length,
		Payload: p.Payload,
		Retries: p.Retries + 1,
	}
}
