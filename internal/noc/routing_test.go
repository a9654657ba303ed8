package noc

import (
	"math/rand"
	"slices"
	"testing"

	"nord/internal/flit"
	"nord/internal/topology"
)

// forceOff puts a router into the gated-off state directly (decision-level
// tests only; no handshake side effects are needed because no packets are
// in flight).
func forceOff(n *Network, ids ...int) {
	for _, id := range ids {
		n.routers[id].state = powerOff
	}
}

func TestRouteEject(t *testing.T) {
	n := MustNew(DefaultParams(NoRD))
	pkt := &flit.Packet{Src: 0, Dst: 5}
	dec := n.route(n.routers[5], topology.West, pkt, 0)
	if dec.action != actEject {
		t.Errorf("at destination: action %v, want eject", dec.action)
	}
}

func TestRouteConvAdaptiveCandidates(t *testing.T) {
	n := MustNew(DefaultParams(ConvPG))
	pkt := &flit.Packet{Src: 0, Dst: 15}
	dec := n.route(n.routers[0], topology.Local, pkt, 0)
	if dec.action != actPort {
		t.Fatalf("action %v, want port candidates", dec.action)
	}
	// Two minimal dirs (E, S) x 3 adaptive VCs + 1 escape = 7 candidates.
	if len(dec.cands) != 7 {
		t.Errorf("got %d candidates, want 7", len(dec.cands))
	}
	last := dec.cands[len(dec.cands)-1]
	if !last.escape {
		t.Error("last candidate should be the escape fallback")
	}
	for _, c := range dec.cands[:len(dec.cands)-1] {
		if c.escape || c.misroute {
			t.Error("adaptive candidates must not be escape/misroute")
		}
	}
}

func TestRouteConvWakesWhenBlocked(t *testing.T) {
	n := MustNew(DefaultParams(ConvPG))
	// From node 0 to 3: only minimal dir East; gate router 1 off.
	forceOff(n, 1)
	pkt := &flit.Packet{Src: 0, Dst: 3}
	dec := n.route(n.routers[0], topology.Local, pkt, 0)
	if dec.action != actWake || dec.wakeTarget != 1 {
		t.Fatalf("decision %+v, want wake router 1", dec)
	}
	if dec.wuDelay != n.p.EarlyWakeupCycles {
		t.Errorf("Conv_PG WU delay %d, want %d (SA-time assertion)", dec.wuDelay, n.p.EarlyWakeupCycles)
	}
	// Conv_PG_OPT asserts at RC time (no delay).
	n2 := MustNew(DefaultParams(ConvPGOpt))
	forceOff(n2, 1)
	dec2 := n2.route(n2.routers[0], topology.Local, pkt, 0)
	if dec2.action != actWake || dec2.wuDelay != 0 {
		t.Errorf("Conv_PG_OPT decision %+v, want immediate WU", dec2)
	}
}

func TestRouteConvEscapeStarvationWake(t *testing.T) {
	n := MustNew(DefaultParams(ConvPG))
	// Node 5 to 6: minimal East (router 6 on), but XY router is also 6...
	// pick a case where adaptive exists and the XY router is off:
	// from 4 to 7, minimal East via 5,6; XY dir East -> router 5. Gate 5
	// off; adaptive via... minimal is only East. Use 4 -> 15: minimal E
	// (5, off) and S (8, on). XY = East = off.
	forceOff(n, 5)
	pkt := &flit.Packet{Src: 4, Dst: 15}
	dec := n.route(n.routers[4], topology.Local, pkt, 0)
	if dec.action != actPort {
		t.Fatalf("adaptive path via South should exist: %+v", dec)
	}
	// After prolonged starvation the XY escape router must be awoken.
	dec2 := n.route(n.routers[4], topology.Local, pkt, escapeForceAfter)
	if dec2.action != actWake || dec2.wakeTarget != 5 {
		t.Errorf("starved packet should wake the escape router: %+v", dec2)
	}
}

func TestRouteNoRDBypassUsability(t *testing.T) {
	n := MustNew(DefaultParams(NoRD))
	// Ring: 0->1->2->3->7->... Node 0's ring-out is East (to 1).
	// Gate router 1 off. From 0 to 3, minimal = East only; East is 0's
	// Bypass Outport, so router 1 is usable through its bypass.
	forceOff(n, 1)
	pkt := &flit.Packet{Src: 0, Dst: 3}
	dec := n.route(n.routers[0], topology.Local, pkt, 0)
	if dec.action != actPort || len(dec.cands) == 0 {
		t.Fatalf("bypass-usable minimal port missing: %+v", dec)
	}
	if dec.cands[0].dir != topology.East || dec.cands[0].misroute {
		t.Errorf("first candidate %+v, want minimal East without misroute", dec.cands[0])
	}

	// From node 4 (ring-out North, to 0): gate router 5 off. Minimal to
	// 7 is East only; East is NOT 4's bypass outport, so the packet is
	// forced to detour via the ring (misroute) toward node 0.
	forceOff(n, 5)
	pkt2 := &flit.Packet{Src: 4, Dst: 7}
	dec2 := n.route(n.routers[4], topology.Local, pkt2, 0)
	if dec2.action != actPort {
		t.Fatalf("NoRD must never wake for routing: %+v", dec2)
	}
	foundMisroute := false
	for _, c := range dec2.cands {
		if c.misroute && c.dir == n.ring.OutDir(4) {
			foundMisroute = true
		}
	}
	if !foundMisroute {
		t.Errorf("expected a forced ring detour candidate: %+v", dec2.cands)
	}
}

func TestRouteNoRDEscapedConfinement(t *testing.T) {
	n := MustNew(DefaultParams(NoRD))
	pkt := &flit.Packet{Src: 0, Dst: 15, Escaped: true, EscapeVC: 0}
	for id := 0; id < 16; id++ {
		if id == 15 {
			continue
		}
		dec := n.route(n.routers[id], n.ring.InDir(id), pkt, 0)
		if dec.action != actPort || len(dec.cands) != 1 {
			t.Fatalf("escaped packet at %d: %+v, want exactly the ring", id, dec)
		}
		c := dec.cands[0]
		if c.dir != n.ring.OutDir(id) || !c.escape {
			t.Errorf("escaped packet at %d offered %+v", id, c)
		}
		if c.escapeVCNext < c.vc%n.p.VCsPerClass {
			t.Errorf("dateline VC went backward at %d: %+v", id, c)
		}
	}
}

func TestRouteNoRDDatelineSwitch(t *testing.T) {
	n := MustNew(DefaultParams(NoRD))
	// The dateline is the link into ring position 0 (node 0); its ring
	// predecessor is node 4.
	pred := n.ring.Pred(0)
	pkt := &flit.Packet{Src: 8, Dst: 1, Escaped: true, EscapeVC: 0}
	dec := n.route(n.routers[pred], n.ring.InDir(pred), pkt, 0)
	if dec.cands[0].escapeVCNext != 1 {
		t.Errorf("crossing the dateline must switch to escape VC 1: %+v", dec.cands[0])
	}
	// Elsewhere it stays.
	other := n.ring.Pred(pred)
	dec2 := n.route(n.routers[other], n.ring.InDir(other), pkt, 0)
	if dec2.cands[0].escapeVCNext != 0 {
		t.Errorf("non-dateline hop must keep escape VC 0: %+v", dec2.cands[0])
	}
}

func TestBypassCandsMisrouteCap(t *testing.T) {
	n := MustNew(DefaultParams(NoRD))
	forceOff(n, 1)
	// Transit at off router 1 (ring-out East toward 2). Destination 0:
	// minimal is West; the forced East hop is a misroute.
	pkt := &flit.Packet{Src: 3, Dst: 0}
	cands := n.bypassCands(n.routers[1], pkt, 0)
	if len(cands) == 0 || !cands[0].misroute {
		t.Fatalf("expected misroute candidates: %+v", cands)
	}
	// At the cap, only the escape remains.
	pkt.Misroutes = n.p.MisrouteCap
	cands = n.bypassCands(n.routers[1], pkt, 0)
	if len(cands) != 1 || !cands[0].escape {
		t.Errorf("at the cap only escape should be offered: %+v", cands)
	}
	// A minimal ring hop never counts as a misroute regardless of count.
	pkt2 := &flit.Packet{Src: 0, Dst: 3, Misroutes: n.p.MisrouteCap}
	cands = n.bypassCands(n.routers[1], pkt2, 0)
	hasAdaptive := false
	for _, c := range cands {
		if !c.escape && c.misroute {
			t.Errorf("minimal ring hop flagged as misroute: %+v", c)
		}
		if !c.escape {
			hasAdaptive = true
		}
	}
	if !hasAdaptive {
		t.Error("minimal ring hop should keep adaptive latches usable")
	}
}

func TestRouteNoRDEscapeLastResort(t *testing.T) {
	n := MustNew(DefaultParams(NoRD))
	pkt := &flit.Packet{Src: 0, Dst: 15}
	dec := n.route(n.routers[0], topology.Local, pkt, 0)
	for _, c := range dec.cands {
		if c.escape {
			t.Error("fresh packet with adaptive options should not be offered escape")
		}
	}
	dec = n.route(n.routers[0], topology.Local, pkt, escapeAfterNoRD)
	found := false
	for _, c := range dec.cands {
		if c.escape {
			found = true
		}
	}
	if !found {
		t.Error("starved packet must be offered the escape ring")
	}
}

// TestRouteNoRDDetourIsBypassCands is the property behind the two tests
// above, over random router, packet and power states: a powered-on
// router with no usable minimal output (judged here from the topology and
// the neighbours' power states, not by the router) offers exactly what
// the NI bypass of a gated-off router would for the same failure count;
// with a usable one it offers minimal hops only, plus the escape ring
// once the packet has starved.
func TestRouteNoRDDetourIsBypassCands(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, kind := range []topology.Kind{topology.KindMesh, topology.KindTorus} {
		p := DefaultParams(NoRD)
		p.Topology = kind
		n := MustNew(p)
		detours := 0
		for trial := 0; trial < 4000; trial++ {
			for _, r := range n.routers {
				r.state = powerOn
				if rng.Intn(2) == 0 {
					r.state = powerOff
				}
			}
			id, dst := rng.Intn(n.nn), rng.Intn(n.nn)
			if id == dst {
				continue
			}
			pkt := &flit.Packet{Src: rng.Intn(n.nn), Dst: dst, Class: flit.Class(rng.Intn(p.Classes)),
				Misroutes: rng.Intn(p.MisrouteCap + 2)}
			if rng.Intn(4) == 0 {
				pkt.Escaped, pkt.EscapeVC = true, rng.Intn(2)
			}
			inDir := topology.Dir(rng.Intn(int(topology.NumDirs)))
			fails := []int{0, escapeAfterNoRD - 1, escapeAfterNoRD, 3 * escapeAfterNoRD}[rng.Intn(4)]
			r, ringOut := n.routers[id], n.ring.OutDir(id)

			ds := n.topo.MinimalSet(id, dst)
			minimal := ds.Dirs[:ds.Cnt]
			usable := false
			for _, d := range minimal {
				nb, ok := n.topo.Neighbor(id, d)
				if !pkt.Escaped && ok && d != inDir && (n.routers[nb].on() || d == ringOut) {
					usable = true
				}
			}
			dec := n.route(r, inDir, pkt, fails)
			got := slices.Clone(dec.cands)
			if dec.action != actPort || len(got) == 0 {
				t.Fatalf("%v trial %d: decision %+v, want port candidates", kind, trial, dec)
			}
			if !usable {
				detours++
				if want := n.bypassCands(r, pkt, fails); !slices.Equal(got, want) {
					t.Fatalf("%v trial %d: router %d->%d in %v fails %d pkt %+v:\nroute       %+v\nbypassCands %+v",
						kind, trial, id, dst, inDir, fails, pkt, got, want)
				}
				continue
			}
			for i, c := range got {
				switch {
				case c.escape:
					if i != len(got)-1 || fails < escapeAfterNoRD {
						t.Fatalf("%v trial %d: escape offered at %d of %d after %d fails", kind, trial, i, len(got), fails)
					}
				case c.misroute || !slices.Contains(minimal, c.dir) || c.dir == inDir:
					t.Fatalf("%v trial %d: candidate %+v is not a minimal hop (minimal %v, in %v)", kind, trial, c, minimal, inDir)
				}
			}
			if fails >= escapeAfterNoRD && !got[len(got)-1].escape {
				t.Fatalf("%v trial %d: starved packet not offered the escape ring: %+v", kind, trial, got)
			}
		}
		if detours < 500 {
			t.Errorf("%v: only %d forced-detour states drawn", kind, detours)
		}
	}
}

func TestOrderByCreditPrefersFreeDirection(t *testing.T) {
	n := MustNew(DefaultParams(NoPG))
	r := n.routers[0]
	// Exhaust East credits on the adaptive range.
	base := 0
	lo, hi := base+n.p.escapeVCs(), base+n.p.VCsPerClass
	for v := lo; v < hi; v++ {
		r.outCredits[topology.East][v] = 0
	}
	dirs := []topology.Dir{topology.East, topology.South}
	n.orderByCredit(r, dirs, lo, hi)
	if dirs[0] != topology.South {
		t.Errorf("credit ordering failed: %v", dirs)
	}
}
