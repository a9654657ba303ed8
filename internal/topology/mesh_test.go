package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMeshValidation(t *testing.T) {
	if _, err := NewMesh(1, 4); err == nil {
		t.Error("NewMesh(1,4) should fail")
	}
	if _, err := NewMesh(4, 1); err == nil {
		t.Error("NewMesh(4,1) should fail")
	}
	m, err := NewMesh(4, 4)
	if err != nil {
		t.Fatalf("NewMesh(4,4): %v", err)
	}
	if m.N() != 16 {
		t.Errorf("N() = %d, want 16", m.N())
	}
}

func TestMustMeshPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustMesh(0,0) did not panic")
		}
	}()
	MustMesh(0, 0)
}

func TestCoordIDRoundTrip(t *testing.T) {
	m := MustMesh(5, 3)
	for id := 0; id < m.N(); id++ {
		x, y := m.Coord(id)
		if m.ID(x, y) != id {
			t.Errorf("round trip failed for id %d -> (%d,%d)", id, x, y)
		}
	}
}

func TestNeighbor(t *testing.T) {
	m := MustMesh(4, 4)
	// Node 5 = (1,1) has all four neighbors.
	cases := []struct {
		d    Dir
		want int
	}{{East, 6}, {West, 4}, {North, 1}, {South, 9}}
	for _, c := range cases {
		got, ok := m.Neighbor(5, c.d)
		if !ok || got != c.want {
			t.Errorf("Neighbor(5,%v) = %d,%v; want %d,true", c.d, got, ok, c.want)
		}
	}
	// Corner node 0 lacks West and North.
	if _, ok := m.Neighbor(0, West); ok {
		t.Error("node 0 should have no West neighbor")
	}
	if _, ok := m.Neighbor(0, North); ok {
		t.Error("node 0 should have no North neighbor")
	}
	if _, ok := m.Neighbor(0, Local); ok {
		t.Error("Local direction should have no neighbor")
	}
}

func TestDirToAndOpposite(t *testing.T) {
	m := MustMesh(4, 4)
	for id := 0; id < m.N(); id++ {
		for d := East; d < Local; d++ {
			nb, ok := m.Neighbor(id, d)
			if !ok {
				continue
			}
			got, err := m.DirTo(id, nb)
			if err != nil || got != d {
				t.Errorf("DirTo(%d,%d) = %v,%v; want %v", id, nb, got, err, d)
			}
			back, err := m.DirTo(nb, id)
			if err != nil || back != d.Opposite() {
				t.Errorf("DirTo(%d,%d) = %v,%v; want %v", nb, id, back, err, d.Opposite())
			}
		}
	}
	if _, err := m.DirTo(0, 5); err == nil {
		t.Error("DirTo(0,5) on non-adjacent nodes should fail")
	}
}

func TestDirStrings(t *testing.T) {
	names := map[Dir]string{East: "E", West: "W", North: "N", South: "S", Local: "L", Dir(9): "dir(9)"}
	for d, want := range names {
		if d.String() != want {
			t.Errorf("Dir(%d).String() = %q, want %q", d, d.String(), want)
		}
	}
}

// TestOppositePanicsOnNonGridDir pins the hardened behavior: Opposite on
// Local (or garbage) must fail loudly, not silently alias the local port.
func TestOppositePanicsOnNonGridDir(t *testing.T) {
	for _, d := range []Dir{Local, Dir(9)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v.Opposite() did not panic", d)
				}
			}()
			_ = d.Opposite()
		}()
	}
	for _, d := range []Dir{East, West, North, South} {
		if d.Opposite().Opposite() != d {
			t.Errorf("%v.Opposite().Opposite() != %v", d, d)
		}
	}
}

func TestHopDist(t *testing.T) {
	m := MustMesh(4, 4)
	if d := m.HopDist(0, 15); d != 6 {
		t.Errorf("HopDist(0,15) = %d, want 6", d)
	}
	if d := m.HopDist(5, 5); d != 0 {
		t.Errorf("HopDist(5,5) = %d, want 0", d)
	}
}

func TestMinimalDirs(t *testing.T) {
	m := MustMesh(4, 4)
	if s := m.MinimalSet(0, 15); s.Cnt != 2 || s.Dirs != [2]Dir{East, South} {
		t.Errorf("MinimalSet(0,15) = %v, want {E,S}", s)
	}
	if s := m.MinimalSet(7, 7); s.Cnt != 0 {
		t.Errorf("MinimalSet(7,7) = %v, want empty", s)
	}
	if s := m.MinimalSet(15, 0); s.Cnt != 2 || s.Dirs != [2]Dir{West, North} {
		t.Errorf("MinimalSet(15,0) = %v, want {W,N}", s)
	}
}

func TestXYDir(t *testing.T) {
	m := MustMesh(4, 4)
	// XY resolves X before Y.
	if d := m.XYDir(0, 15); d != East {
		t.Errorf("XYDir(0,15) = %v, want East", d)
	}
	if d := m.XYDir(3, 15); d != South {
		t.Errorf("XYDir(3,15) = %v, want South", d)
	}
	if d := m.XYDir(15, 0); d != West {
		t.Errorf("XYDir(15,0) = %v, want West", d)
	}
	if d := m.XYDir(6, 6); d != Local {
		t.Errorf("XYDir(6,6) = %v, want Local", d)
	}
}

// Property: XY routing always reaches the destination in exactly the
// Manhattan distance for random meshes and node pairs.
func TestXYReachesDestination(t *testing.T) {
	f := func(w8, h8, s16, d16 uint16) bool {
		w := int(w8%7) + 2
		h := int(h8%7) + 2
		m := MustMesh(w, h)
		src := int(s16) % m.N()
		dst := int(d16) % m.N()
		cur := src
		steps := 0
		for cur != dst {
			d := m.XYDir(cur, dst)
			nb, ok := m.Neighbor(cur, d)
			if !ok {
				return false
			}
			cur = nb
			steps++
			if steps > m.N() {
				return false
			}
		}
		return steps == m.HopDist(src, dst)
	}
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(2)), MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: minimal directions always reduce the hop distance by one.
func TestMinimalDirsProperty(t *testing.T) {
	f := func(w8, h8, s16, d16 uint16) bool {
		w := int(w8%7) + 2
		h := int(h8%7) + 2
		m := MustMesh(w, h)
		src := int(s16) % m.N()
		dst := int(d16) % m.N()
		set := m.MinimalSet(src, dst)
		for _, d := range set.Dirs[:set.Cnt] {
			nb, ok := m.Neighbor(src, d)
			if !ok {
				return false
			}
			if m.HopDist(nb, dst) != m.HopDist(src, dst)-1 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(3)), MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
