package flit

// Pool recycles Packet and Flit objects so the simulator's steady state
// allocates nothing: every ejected packet returns its flits, and every
// delivered packet that is not poisoned returns itself, to per-network
// free-lists that the next injection draws from. (A poisoned packet waits
// in the fault-recovery retry queue; its retransmission is a clone.)
//
// Objects are reset when handed out, not when returned: a delivery
// handler may read the packet (Hops, InjectTime, ...) until it returns.
// A recycled object's fields therefore stay valid until the pool
// reissues it.
type Pool struct {
	packets []*Packet
	flits   []*Flit
}

// Packet returns a zeroed packet, reusing a recycled one when available.
func (pl *Pool) Packet() *Packet {
	n := len(pl.packets)
	if n == 0 {
		return &Packet{pooled: true}
	}
	p := pl.packets[n-1]
	pl.packets[n-1] = nil
	pl.packets = pl.packets[:n-1]
	*p = Packet{}
	p.pooled = true
	return p
}

// PutPacket returns a packet to the free-list. Packets not issued by a
// pool (tests, retransmit clones) are ignored, never recycled. The caller
// must be sure no other component retains the pointer.
func (pl *Pool) PutPacket(p *Packet) {
	if p == nil || !p.pooled {
		return
	}
	pl.packets = append(pl.packets, p)
}

// PutFlit returns a flit to the free-list, dropping its packet reference
// so the packet's lifetime is not extended by the pool. Flits not issued
// by a pool are ignored and left untouched.
func (pl *Pool) PutFlit(f *Flit) {
	if f == nil || !f.pooled {
		return
	}
	f.Packet = nil
	pl.flits = append(pl.flits, f)
}

// getFlit returns a zeroed flit, reusing a recycled one when available.
func (pl *Pool) getFlit() *Flit {
	n := len(pl.flits)
	if n == 0 {
		return &Flit{pooled: true}
	}
	f := pl.flits[n-1]
	pl.flits[n-1] = nil
	pl.flits = pl.flits[:n-1]
	*f = Flit{pooled: true}
	return f
}

// AppendFlits serialises p into its flit sequence — a single HeadTail
// flit, or a Head, Bodies and a Tail, each checksummed — appended to dst,
// drawing the flit objects from the pool. A length below 1 is normalised
// to 1. dst is typically a persistent per-NI buffer passed as buf[:0].
func (pl *Pool) AppendFlits(dst []*Flit, p *Packet) []*Flit {
	if p.Length <= 0 {
		p.Length = 1
	}
	for i := 0; i < p.Length; i++ {
		k := Body
		switch {
		case p.Length == 1:
			k = HeadTail
		case i == 0:
			k = Head
		case i == p.Length-1:
			k = Tail
		}
		f := pl.getFlit()
		f.Packet = p
		f.Kind = k
		f.Seq = i
		f.Checksum = f.ComputeChecksum()
		dst = append(dst, f)
	}
	return dst
}
