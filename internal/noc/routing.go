package noc

import (
	"nord/internal/flit"
	"nord/internal/topology"
)

// routeAction classifies a routing decision.
type routeAction uint8

const (
	// actPort: try the ordered output (dir, vc) candidates.
	actPort routeAction = iota
	// actEject: the packet is at its destination.
	actEject
	// actWake: conventional designs only — no usable output exists, a
	// gated-off router must be awoken (the packet stalls, asserting WU).
	actWake
)

// cand is one output (port, VC) candidate, with the bookkeeping that must
// happen if it is granted.
type cand struct {
	dir          topology.Dir
	vc           int
	escape       bool
	misroute     bool
	escapeVCNext int
}

// decision is the result of route computation for a head packet.
type decision struct {
	action     routeAction
	cands      []cand
	wakeTarget int
	wuDelay    int
}

// routeTableMaxNodes bounds the grids for which the quadratic per-pair
// routing tables are precomputed (a 32x32 grid costs ~5 MB). Larger
// networks compute directions through the topology — still
// allocation-free (MinimalSet returns by value).
const routeTableMaxNodes = 1024

// buildRouteTables precomputes the per-(src,dst) minimal-direction sets
// and deterministic (XY/DOR) escape directions so route computation is a
// table lookup instead of coordinate arithmetic plus a fresh slice per
// decision.
func (n *Network) buildRouteTables() {
	if n.nn > routeTableMaxNodes {
		return
	}
	n.minDirs = make([]topology.DirSet, n.nn*n.nn)
	n.xyDirs = make([]topology.Dir, n.nn*n.nn)
	for s := 0; s < n.nn; s++ {
		for t := 0; t < n.nn; t++ {
			n.minDirs[s*n.nn+t] = n.topo.MinimalSet(s, t)
			n.xyDirs[s*n.nn+t] = n.topo.XYDir(s, t)
		}
	}
}

// minimalDirSet returns the minimal-progress directions from src to dst
// by value, so callers can slice a stack copy and reorder it in place
// without touching the shared table.
func (n *Network) minimalDirSet(src, dst int) topology.DirSet {
	if n.minDirs != nil {
		return n.minDirs[src*n.nn+dst]
	}
	return n.topo.MinimalSet(src, dst)
}

// xyDir returns the deterministic dimension-order direction from src
// toward dst (XY on a mesh, shortest-way-around DOR on a torus).
func (n *Network) xyDir(src, dst int) topology.Dir {
	if n.xyDirs != nil {
		return n.xyDirs[src*n.nn+dst]
	}
	return n.topo.XYDir(src, dst)
}

// escapeForceAfter is the number of failed VA attempts after which a
// conventional design escalates: if its escape path runs through a
// gated-off router, that router is awoken. This guarantees forward
// progress (the escape network must be reachable for Duato's protocol).
const escapeForceAfter = 16

// escapeAfterNoRD is the number of failed VA attempts after which a NoRD
// packet adds the escape ring to its candidates. Entering the ring is a
// committed long detour, so it is a last resort rather than an instant
// fallback; blocked packets still reach it (Duato's protocol needs escape
// reachability, not immediacy).
const escapeAfterNoRD = 16

// route computes the routing decision for pkt at router r, having arrived
// on input port inDir (topology.Local for locally injected packets).
// vaFails is the number of consecutive failed allocation attempts for
// this head, used to escalate to wakeups in conventional designs.
func (n *Network) route(r *Router, inDir topology.Dir, pkt *flit.Packet, vaFails int) decision {
	if pkt.Dst == r.id {
		return decision{action: actEject}
	}
	if n.ring != nil {
		return n.routeNoRD(r, inDir, pkt, vaFails)
	}
	return n.routeConv(r, pkt, vaFails)
}

// routeConv routes for No_PG, Conv_PG and Conv_PG_OPT: minimal adaptive
// routing on the adaptive VCs with XY routing on the escape VC (Duato's
// protocol). Gated-off routers are unusable; if no usable output exists
// the XY-preferred gated-off neighbor must be awoken. Conv_PG asserts WU
// at SA-request time; Conv_PG_OPT generates it EarlyWakeupCycles earlier
// (at RC time), hiding that much of the wakeup latency (Section 3.3).
func (n *Network) routeConv(r *Router, pkt *flit.Packet, vaFails int) decision {
	base := n.p.vcBase(int(pkt.Class))
	adaptiveLo := base + n.p.escapeVCs()
	adaptiveHi := base + n.p.VCsPerClass
	xy := n.xyDir(r.id, pkt.Dst)
	xyNb, _ := n.neighbor(r.id, xy)

	cands := n.candScratch[:0]
	if !pkt.Escaped {
		// Adaptive candidates: minimal directions whose router is on,
		// best-credit first.
		ds := n.minimalDirSet(r.id, pkt.Dst)
		dirs := ds.Dirs[:ds.Cnt]
		n.orderByCredit(r, dirs, adaptiveLo, adaptiveHi)
		for _, d := range dirs {
			nb, ok := n.neighbor(r.id, d)
			if !ok || !n.routers[nb].on() {
				continue
			}
			for v := adaptiveLo; v < adaptiveHi; v++ {
				cands = append(cands, cand{dir: d, vc: v})
			}
		}
	}
	// Escape fallback: the deterministic (XY/DOR) output's escape VC,
	// usable only when that router is on. On a torus the escape class is
	// the dateline VC pair; on a mesh convEscapeVC is always 0.
	if n.routers[xyNb].on() {
		cands = append(cands, cand{
			dir:          xy,
			vc:           base + n.convEscapeVC(r.id, xy, pkt),
			escape:       true,
			escapeVCNext: n.convEscapeVCNext(r.id, xy, pkt),
		})
	}
	n.candScratch = cands
	if len(cands) == 0 {
		// No usable output at all: stall and wake the XY-preferred
		// neighbor (node-router dependence, Section 3).
		return n.wakeDecision(xyNb)
	}
	if vaFails >= escapeForceAfter && !n.routers[xyNb].on() {
		// Adaptive outputs exist but have starved; the escape network
		// must become reachable for Duato's protocol to guarantee
		// progress, so wake the escape router.
		return n.wakeDecision(xyNb)
	}
	return decision{action: actPort, cands: cands}
}

// wakeDecision builds the stall-and-wake decision for conventional
// designs. Conv_PG's WU is generated at SA-request time, modelled as an
// assertion delay of EarlyWakeupCycles (1 on a TwoStageRouter, whose
// shorter pipeline hides fewer cycles) relative to Conv_PG_OPT's RC-time
// generation.
func (n *Network) wakeDecision(target int) decision {
	delay := 0
	if n.wake == wakeAtSA {
		delay = EarlyWakeupCycles
		if n.p.TwoStageRouter {
			delay = 1
		}
	}
	return decision{action: actWake, wakeTarget: target, wuDelay: delay}
}

// routeNoRD routes for NoRD (Section 4.2): packets on adaptive VCs use
// minimal adaptive routing over powered-on routers and the bypass of
// powered-off ones (reachable only through their Bypass Inport, i.e. via
// this router's Bypass Outport); when no minimal output is usable — and
// always once on the escape ring — only the Bypass Outport is left, which
// is bypassCands' rule. No wakeups are ever needed.
func (n *Network) routeNoRD(r *Router, inDir topology.Dir, pkt *flit.Packet, vaFails int) decision {
	cands := n.candScratch[:0]
	if !pkt.Escaped {
		base := n.p.vcBase(int(pkt.Class))
		adaptiveLo := base + n.p.escapeVCs()
		adaptiveHi := base + n.p.VCsPerClass
		ringOut := n.ring.OutDir(r.id)
		ds := n.minimalDirSet(r.id, pkt.Dst)
		dirs := ds.Dirs[:ds.Cnt]
		n.orderByCredit(r, dirs, adaptiveLo, adaptiveHi)
		for _, d := range dirs {
			if d == inDir {
				continue // no U-turns
			}
			nb, ok := n.neighbor(r.id, d)
			if !ok {
				continue
			}
			if !n.routers[nb].on() && d != ringOut {
				continue // gated-off routers accept flits only on the ring
			}
			for v := adaptiveLo; v < adaptiveHi; v++ {
				cands = append(cands, cand{dir: d, vc: v})
			}
		}
	}
	if len(cands) == 0 {
		return decision{cands: n.bypassCands(r, pkt, vaFails)}
	}
	// Escape-ring fallback: the ring link is usable whether its downstream
	// router is on or off, but it is offered only once the packet has
	// starved on adaptive resources.
	if vaFails >= escapeAfterNoRD {
		cands = append(cands, n.ringEscapeCand(r.id, pkt))
	}
	n.candScratch = cands
	return decision{cands: cands}
}

// bypassCands returns the ordered output-VC candidates when only the
// Bypass Outport is left: for a packet forwarded (or locally injected)
// through a gated-off router's NI bypass, and for one a powered-on router
// must detour because no minimal output is usable. The packet stays on
// adaptive resources, misrouted by one hop unless the ring hop happens to
// be minimal, while below the misroute cap; the escape ring is offered
// once it has starved there or has no other option, and is all an escaped
// packet gets (Section 4.2: "powered-off routers have no VCs but still
// have the corresponding adaptive/escape latches").
func (n *Network) bypassCands(r *Router, pkt *flit.Packet, fails int) []cand {
	cands := n.candScratch[:0]
	if !pkt.Escaped {
		ringOut := n.ring.OutDir(r.id)
		ds := n.minimalDirSet(r.id, pkt.Dst)
		misroute := true
		for _, d := range ds.Dirs[:ds.Cnt] {
			if d == ringOut {
				misroute = false // the ring hop happens to be minimal
			}
		}
		if pkt.Misroutes < n.p.MisrouteCap || !misroute {
			base := n.p.vcBase(int(pkt.Class))
			for v := base + n.p.escapeVCs(); v < base+n.p.VCsPerClass; v++ {
				cands = append(cands, cand{dir: ringOut, vc: v, misroute: misroute})
			}
		}
	}
	if len(cands) == 0 || fails >= escapeAfterNoRD {
		cands = append(cands, n.ringEscapeCand(r.id, pkt))
	}
	n.candScratch = cands
	return cands
}

// ringEscapeCand is the escape-ring candidate out of router id: the ring
// link on the packet's dateline VC.
func (n *Network) ringEscapeCand(id int, pkt *flit.Packet) cand {
	return cand{
		dir:          n.ring.OutDir(id),
		vc:           n.p.vcBase(int(pkt.Class)) + n.ringEscapeVC(id, pkt),
		escape:       true,
		escapeVCNext: n.ringEscapeVCNext(id, pkt),
	}
}

// convEscapeVC returns the escape VC (within the class's escape set) a
// conventional-design packet must use on the deterministic escape link
// out of router id through dir. On a mesh (and cmesh) the escape class is
// a single XY VC: always 0. On a torus the escape class is a dateline
// pair per dimension ring: the wrap link always carries VC 1, links
// before the dateline VC 0 and links after it VC 1 (the packet's position
// is tracked in pkt.EscapeVC and reset at each dimension change), so the
// channel order within each directed ring is strictly increasing and no
// escape-channel cycle survives.
func (n *Network) convEscapeVC(id int, d topology.Dir, pkt *flit.Packet) int {
	if n.topo.WrapLink(id, d) {
		return 1
	}
	if pkt.Escaped {
		return pkt.EscapeVC
	}
	return 0
}

// convEscapeVCNext returns the escape VC the packet holds after
// traversing the escape link out of id through d: reset to 0 when the
// next hop starts a new dimension (dimension-ordered escape routing makes
// cross-dimension dependences acyclic, and minimal DOR crosses each
// dateline at most once), otherwise the VC used on this link (1 from the
// dateline crossing onward).
func (n *Network) convEscapeVCNext(id int, d topology.Dir, pkt *flit.Packet) int {
	nb, ok := n.neighbor(id, d)
	if !ok || nb == pkt.Dst {
		return 0
	}
	if dimOf(d) != dimOf(n.xyDir(nb, pkt.Dst)) {
		return 0
	}
	return n.convEscapeVC(id, d, pkt)
}

// dimOf returns the dimension (0 = X, 1 = Y) of a grid direction.
func dimOf(d topology.Dir) int {
	if d == topology.East || d == topology.West {
		return 0
	}
	return 1
}

// ringEscapeVC returns the escape VC (within the class's escape pair) a
// packet must use on the ring link out of router id: VC 0 before crossing
// the dateline, VC 1 after.
func (n *Network) ringEscapeVC(id int, pkt *flit.Packet) int {
	if pkt.Escaped {
		return pkt.EscapeVC
	}
	return 0
}

// ringEscapeVCNext returns the escape VC the packet will hold after
// traversing the ring link out of router id (the dateline switch).
func (n *Network) ringEscapeVCNext(id int, pkt *flit.Packet) int {
	cur := n.ringEscapeVC(id, pkt)
	if n.ring.CrossesDateline(id) {
		return 1
	}
	return cur
}

// orderByCredit sorts candidate directions by descending free credits in
// the adaptive VC range (a congestion-aware selection function); ties keep
// the deterministic minimal-dirs order. Insertion sort: the slice has at
// most two entries.
func (n *Network) orderByCredit(r *Router, dirs []topology.Dir, lo, hi int) {
	credit := func(d topology.Dir) int {
		sum := 0
		for v := lo; v < hi; v++ {
			if r.outOwner[d][v] == ownerFree {
				sum += r.outCredits[d][v]
			}
		}
		return sum
	}
	for i := 1; i < len(dirs); i++ {
		for j := i; j > 0 && credit(dirs[j]) > credit(dirs[j-1]); j-- {
			dirs[j], dirs[j-1] = dirs[j-1], dirs[j]
		}
	}
}
