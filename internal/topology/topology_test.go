package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// allTopos builds one instance of every topology kind over a grid.
func allTopos(t *testing.T, w, h int) []Topology {
	t.Helper()
	out := []Topology{MustMesh(w, h), MustTorus(w, h)}
	c, err := NewCMesh(w, h)
	if err == nil {
		out = append(out, c)
	}
	return out
}

func TestKindByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Kind
	}{{"", KindMesh}, {"mesh", KindMesh}, {"torus", KindTorus}, {"cmesh", KindCMesh}, {"concentrated_mesh", KindCMesh}} {
		got, err := KindByName(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("KindByName(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	if _, err := KindByName("hypercube"); err == nil {
		t.Error("KindByName(hypercube) should fail")
	}
	for _, name := range []string{"mesh", "torus", "cmesh"} {
		k, err := KindByName(name)
		if err != nil || k.String() != name {
			t.Errorf("canonical name %q does not round-trip (%v, %v)", name, k, err)
		}
	}
}

// TestLinkSymmetry is the satellite property test: for every topology and
// every wired (node, dir) link — torus wrap links included — the link is
// symmetric: Neighbor(Neighbor(n,d), Opposite(d)) == n, and DirTo agrees
// with the port map in both directions.
func TestLinkSymmetry(t *testing.T) {
	f := func(w8, h8 uint16) bool {
		w := int(w8%6) + 2
		h := int(h8%6) + 2
		for _, topo := range allTopos(t, w, h) {
			for id := 0; id < topo.N(); id++ {
				for d := East; d < Local; d++ {
					nb, ok := topo.Neighbor(id, d)
					if !ok {
						if topo.Kind() == KindTorus {
							t.Errorf("%v %dx%d: torus node %d lacks %v", topo.Kind(), w, h, id, d)
							return false
						}
						continue
					}
					back, ok2 := topo.Neighbor(nb, d.Opposite())
					if !ok2 || back != id {
						t.Errorf("%v %dx%d: Neighbor(Neighbor(%d,%v)=%d, %v) = %d,%v; want %d",
							topo.Kind(), w, h, id, d, nb, d.Opposite(), back, ok2, id)
						return false
					}
					if _, err := topo.DirTo(id, nb); err != nil {
						t.Errorf("%v %dx%d: DirTo(%d,%d) failed for wired link: %v", topo.Kind(), w, h, id, nb, err)
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(11)), MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestMinimalProgress: on every topology, each minimal direction reduces
// HopDist by exactly one and XY routing terminates in exactly HopDist
// steps.
func TestMinimalProgress(t *testing.T) {
	f := func(w8, h8, s16, d16 uint16) bool {
		w := int(w8%6) + 2
		h := int(h8%6) + 2
		for _, topo := range allTopos(t, w, h) {
			src := int(s16) % topo.N()
			dst := int(d16) % topo.N()
			set := topo.MinimalSet(src, dst)
			for _, d := range set.Dirs[:set.Cnt] {
				nb, ok := topo.Neighbor(src, d)
				if !ok || topo.HopDist(nb, dst) != topo.HopDist(src, dst)-1 {
					t.Errorf("%v %dx%d: minimal dir %v from %d to %d does not reduce distance", topo.Kind(), w, h, d, src, dst)
					return false
				}
			}
			cur, steps := src, 0
			for cur != dst {
				d := topo.XYDir(cur, dst)
				nb, ok := topo.Neighbor(cur, d)
				if !ok {
					t.Errorf("%v: XYDir(%d,%d)=%v is not wired", topo.Kind(), cur, dst, d)
					return false
				}
				cur = nb
				steps++
				if steps > topo.N() {
					t.Errorf("%v %dx%d: XY routing %d->%d did not terminate", topo.Kind(), w, h, src, dst)
					return false
				}
			}
			if steps != topo.HopDist(src, dst) {
				t.Errorf("%v %dx%d: XY %d->%d took %d steps, HopDist %d", topo.Kind(), w, h, src, dst, steps, topo.HopDist(src, dst))
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(12)), MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestTorusWrapLinks: wrap links sit exactly on the grid boundary, and a
// minimally-routed packet crosses each dimension's dateline at most once —
// the invariant that lets the 2-VC dateline discipline stay deadlock-free
// (a packet that crossed can never need the pre-dateline VC class again
// within the dimension).
func TestTorusWrapLinks(t *testing.T) {
	for _, dims := range [][2]int{{2, 2}, {3, 3}, {4, 4}, {5, 3}, {4, 7}} {
		tor := MustTorus(dims[0], dims[1])
		wraps := 0
		for id := 0; id < tor.N(); id++ {
			x, y := tor.Coord(id)
			for d := East; d < Local; d++ {
				isWrap := tor.WrapLink(id, d)
				wantWrap := (d == East && x == tor.W-1) || (d == West && x == 0) ||
					(d == North && y == 0) || (d == South && y == tor.H-1)
				if isWrap != wantWrap {
					t.Errorf("%dx%d torus: WrapLink(%d,%v) = %v, want %v", tor.W, tor.H, id, d, isWrap, wantWrap)
				}
				if isWrap {
					wraps++
				}
			}
		}
		if want := 2*tor.W + 2*tor.H; wraps != want {
			t.Errorf("%dx%d torus has %d wrap links, want %d", tor.W, tor.H, wraps, want)
		}
		// Dateline-crossing bound along XY paths.
		for src := 0; src < tor.N(); src++ {
			for dst := 0; dst < tor.N(); dst++ {
				crossX, crossY := 0, 0
				cur := src
				for cur != dst {
					d := tor.XYDir(cur, dst)
					if tor.WrapLink(cur, d) {
						if d == East || d == West {
							crossX++
						} else {
							crossY++
						}
					}
					cur, _ = tor.Neighbor(cur, d)
				}
				if crossX > 1 || crossY > 1 {
					t.Fatalf("%dx%d torus: XY %d->%d crosses datelines X=%d Y=%d (max 1 each)",
						tor.W, tor.H, src, dst, crossX, crossY)
				}
			}
		}
	}
}

// TestTorusMeshDisagree: sanity that the torus actually uses its wrap
// links — corner-to-corner distance collapses to 2 hops.
func TestTorusMeshDisagree(t *testing.T) {
	tor := MustTorus(4, 4)
	m := MustMesh(4, 4)
	if got, want := tor.HopDist(0, 15), 2; got != want {
		t.Errorf("torus HopDist(0,15) = %d, want %d", got, want)
	}
	if got, want := m.HopDist(0, 15), 6; got != want {
		t.Errorf("mesh HopDist(0,15) = %d, want %d", got, want)
	}
	// Neighbor wraps: node 0 West -> node 3, North -> node 12.
	if nb, ok := tor.Neighbor(0, West); !ok || nb != 3 {
		t.Errorf("torus Neighbor(0,W) = %d,%v; want 3", nb, ok)
	}
	if nb, ok := tor.Neighbor(0, North); !ok || nb != 12 {
		t.Errorf("torus Neighbor(0,N) = %d,%v; want 12", nb, ok)
	}
	if tor.NumLinks() != 64 {
		t.Errorf("4x4 torus NumLinks = %d, want 64", tor.NumLinks())
	}
	if tor.EscapeVCs() != 2 || m.EscapeVCs() != 1 {
		t.Error("escape VC counts: torus wants 2, mesh wants 1")
	}
}

// TestRingOnTorus: even grids reuse the comb cycle byte-for-byte (NoRD's
// ring is topology-stable there); odd x odd grids — impossible on a mesh —
// close a Hamiltonian cycle through the wrap links.
func TestRingOnTorus(t *testing.T) {
	meshRing, err := NewRing(MustMesh(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	torusRing, err := NewRing(MustTorus(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range meshRing.Order() {
		if torusRing.Order()[i] != v {
			t.Fatalf("even-grid torus ring diverges from mesh comb at %d: %v vs %v", i, torusRing.Order(), meshRing.Order())
		}
	}
	for _, dims := range [][2]int{{3, 3}, {3, 5}, {5, 3}, {5, 7}, {7, 5}, {9, 9}} {
		tor := MustTorus(dims[0], dims[1])
		r, err := NewRing(tor)
		if err != nil {
			t.Fatalf("%dx%d torus ring: %v", dims[0], dims[1], err)
		}
		// ringFromOrder already validates Hamiltonicity; double-check the
		// succ/pred/port tables are mutually consistent.
		for v := 0; v < tor.N(); v++ {
			s := r.Succ(v)
			if r.Pred(s) != v {
				t.Errorf("%dx%d: pred(succ(%d)) = %d", dims[0], dims[1], v, r.Pred(s))
			}
			nb, ok := tor.Neighbor(v, r.OutDir(v))
			if !ok || nb != s {
				t.Errorf("%dx%d: outDir(%d)=%v does not reach succ %d", dims[0], dims[1], v, r.OutDir(v), s)
			}
			if r.InDir(s) != r.OutDir(v).Opposite() {
				t.Errorf("%dx%d: inDir(%d) inconsistent", dims[0], dims[1], s)
			}
		}
	}
	if _, err := NewRing(MustMesh(3, 3)); err == nil {
		t.Error("odd x odd mesh ring should remain impossible")
	}
	if _, err := NewRing(MustCMesh(3, 3)); err == nil {
		t.Error("odd x odd cmesh ring should remain impossible")
	}
}

// TestCMeshTerminals: the terminal grid is 2W x 2H, every router serves
// exactly C terminals, and the mapping respects 2x2 tiling.
func TestCMeshTerminals(t *testing.T) {
	c := MustCMesh(4, 3)
	if c.Concentration() != 4 {
		t.Fatalf("concentration = %d, want 4", c.Concentration())
	}
	term := c.Terminals()
	if term.W != 8 || term.H != 6 {
		t.Fatalf("terminal grid = %dx%d, want 8x6", term.W, term.H)
	}
	perRouter := make([]int, c.N())
	for tm := 0; tm < term.N(); tm++ {
		r := c.TerminalRouter(tm)
		if !c.Valid(r) {
			t.Fatalf("terminal %d maps to invalid router %d", tm, r)
		}
		perRouter[r]++
		tx, ty := term.Coord(tm)
		rx, ry := c.Coord(r)
		if tx/2 != rx || ty/2 != ry {
			t.Errorf("terminal (%d,%d) maps to router (%d,%d), want (%d,%d)", tx, ty, rx, ry, tx/2, ty/2)
		}
	}
	for r, n := range perRouter {
		if n != 4 {
			t.Errorf("router %d serves %d terminals, want 4", r, n)
		}
	}
	// Mesh and torus terminals are the identity.
	for _, topo := range []Topology{MustMesh(4, 4), MustTorus(4, 4)} {
		if topo.Concentration() != 1 || topo.Terminals().N() != topo.N() {
			t.Errorf("%v: concentration-1 topology must have identity terminals", topo.Kind())
		}
		for i := 0; i < topo.N(); i++ {
			if topo.TerminalRouter(i) != i {
				t.Errorf("%v: TerminalRouter(%d) != %d", topo.Kind(), i, i)
			}
		}
	}
}

// TestPlannerOnTorus: the planner's reachability argument holds on the
// torus too (the ring connects everything even with all routers off).
func TestPlannerOnTorus(t *testing.T) {
	tor := MustTorus(3, 3)
	r, err := NewRing(tor)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(tor, r)
	h, c, err := pl.Eval(make([]bool, tor.N()))
	if err != nil {
		t.Fatalf("all-off eval: %v", err)
	}
	if h <= 0 || c <= 0 {
		t.Errorf("implausible all-off eval: hops %v cycles %v", h, c)
	}
	on := make([]bool, tor.N())
	for i := range on {
		on[i] = true
	}
	hOn, _, err := pl.Eval(on)
	if err != nil {
		t.Fatalf("all-on eval: %v", err)
	}
	if hOn >= h {
		t.Errorf("all-on avg hops %v should beat all-off %v", hOn, h)
	}
}
