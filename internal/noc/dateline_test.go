package noc

import (
	"fmt"
	"testing"

	"nord/internal/flit"
	"nord/internal/topology"
)

// escNode is one escape channel: a directed link (router, outDir)
// together with the escape VC a packet holds while traversing it.
type escNode struct {
	id int
	d  topology.Dir
	vc int
}

// TestTorusDatelineVCSafety is the deadlock-freedom property test of the
// torus DOR escape discipline (the dateline VC assignment). For every
// (src, dst) pair it walks the XY escape path exactly as routeConv
// assigns VCs — convEscapeVC picks the channel, convEscapeVCNext is the
// state the packet carries onward — and checks:
//
//  1. a wrap (dateline) link is never granted escape VC 0,
//  2. within one dimension the escape VC never decreases (the dateline
//     bumps it 0->1 at most once; minimal routing crosses each dateline
//     at most once),
//  3. the channel-dependency graph over all escape channels, as induced
//     by the union of all walked paths, is acyclic — the textbook
//     sufficient condition for escape-network deadlock freedom.
//
// The same walk on mesh and cmesh must keep every packet on VC 0 (those
// topologies have no wrap links and a single conv escape VC).
func TestTorusDatelineVCSafety(t *testing.T) {
	for _, g := range []struct {
		kind topology.Kind
		w, h int
	}{
		{topology.KindTorus, 4, 4},
		{topology.KindTorus, 5, 5},
		{topology.KindTorus, 8, 8},
		{topology.KindTorus, 3, 7},
		{topology.KindMesh, 5, 5},
		{topology.KindCMesh, 4, 4},
	} {
		t.Run(fmt.Sprintf("%v_%dx%d", g.kind, g.w, g.h), func(t *testing.T) {
			p := DefaultParams(ConvPG)
			p.Width, p.Height = g.w, g.h
			p.Topology = g.kind
			n := MustNew(p)

			succ := make(map[escNode]map[escNode]bool)
			nn := n.topo.N()
			for src := 0; src < nn; src++ {
				for dst := 0; dst < nn; dst++ {
					if src == dst {
						continue
					}
					pkt := &flit.Packet{Dst: dst}
					cur := src
					prev := escNode{id: -1}
					prevDim := -1
					for hops := 0; cur != dst; hops++ {
						if hops > g.w+g.h {
							t.Fatalf("XY walk %d->%d did not terminate", src, dst)
						}
						xy := n.xyDir(cur, dst)
						vc := n.convEscapeVC(cur, xy, pkt)
						if n.topo.WrapLink(cur, xy) && vc != 1 {
							t.Fatalf("%d->%d: wrap link at router %d dir %v granted escape VC %d, dateline requires VC 1",
								src, dst, cur, xy, vc)
						}
						if g.kind != topology.KindTorus && vc != 0 {
							t.Fatalf("%d->%d: %v granted escape VC %d on a topology with a single escape VC",
								src, dst, g.kind, vc)
						}
						if dimOf(xy) == prevDim && vc < prev.vc {
							t.Fatalf("%d->%d: escape VC dropped %d->%d within dimension %d at router %d",
								src, dst, prev.vc, vc, prevDim, cur)
						}
						node := escNode{id: cur, d: xy, vc: vc}
						if prev.id >= 0 {
							m := succ[prev]
							if m == nil {
								m = make(map[escNode]bool)
								succ[prev] = m
							}
							m[node] = true
						}
						pkt.EscapeVC = n.convEscapeVCNext(cur, xy, pkt)
						pkt.Escaped = true
						prev, prevDim = node, dimOf(xy)
						nb, ok := n.neighbor(cur, xy)
						if !ok {
							t.Fatalf("%d->%d: XY walk fell off the grid at router %d dir %v", src, dst, cur, xy)
						}
						cur = nb
					}
				}
			}

			// Cycle detection over the induced channel-dependency graph.
			const (
				white = 0
				grey  = 1
				black = 2
			)
			color := make(map[escNode]int)
			var visit func(u escNode) bool
			visit = func(u escNode) bool {
				color[u] = grey
				for v := range succ[u] {
					switch color[v] {
					case grey:
						return false
					case white:
						if !visit(v) {
							return false
						}
					}
				}
				color[u] = black
				return true
			}
			for u := range succ {
				if color[u] == white && !visit(u) {
					t.Fatalf("escape channel-dependency graph has a cycle through (router %d, %v, VC %d)", u.id, u.d, u.vc)
				}
			}
		})
	}
}
