package topology

import "fmt"

// Torus is a W x H 2D torus: the mesh of the same grid plus wraparound
// links closing every row and column, so every router has all four grid
// ports wired. Node IDs and coordinates match the mesh (row-major, row 0
// at the North edge).
//
// Deterministic routing is dimension-ordered with per-dimension shortest
// direction; deadlock freedom on the escape class uses the standard
// dateline discipline: the wrap link of each row/column is the dateline,
// packets start a dimension on escape VC 0 and switch to escape VC 1 when
// they traverse the dateline, which breaks the ring's cyclic channel
// dependence (EscapeVCs reports 2). Ties at even dimensions (dist W/2)
// resolve East/South, so minimal routing stays deterministic.
//
// The grid, the node numbering and the terminal mapping are the mesh's,
// so Torus embeds Mesh and overrides only what the wrap links change.
type Torus struct {
	Mesh
}

// NewTorus returns a torus of the given dimensions (at least 2x2).
func NewTorus(w, h int) (Torus, error) {
	if w < 2 || h < 2 {
		return Torus{}, fmt.Errorf("topology: torus must be at least 2x2, got %dx%d", w, h)
	}
	return Torus{Mesh{W: w, H: h}}, nil
}

// MustTorus is NewTorus that panics on invalid dimensions.
func MustTorus(w, h int) Torus {
	t, err := NewTorus(w, h)
	if err != nil {
		panic(err)
	}
	return t
}

var _ Topology = Torus{}

// Kind identifies the topology family.
func (t Torus) Kind() Kind { return KindTorus }

// Neighbor returns the router adjacent to id in direction d. On a torus
// every grid port is wired, so it only fails for Local. A 2-wide dimension
// has two distinct links between the same router pair (East and West both
// reach the other column); they are separate physical channels.
func (t Torus) Neighbor(id int, d Dir) (int, bool) {
	x, y := t.Coord(id)
	switch d {
	case East:
		x = (x + 1) % t.W
	case West:
		x = (x - 1 + t.W) % t.W
	case North:
		y = (y - 1 + t.H) % t.H
	case South:
		y = (y + 1) % t.H
	default:
		return -1, false
	}
	return t.ID(x, y), true
}

// DirTo returns the direction of the link from a to b, which must be
// adjacent (including across a wrap link). On a 2-wide dimension both
// directions connect the pair; the East/South channel is reported.
func (t Torus) DirTo(a, b int) (Dir, error) {
	ax, ay := t.Coord(a)
	bx, by := t.Coord(b)
	dx := (bx - ax + t.W) % t.W
	dy := (by - ay + t.H) % t.H
	switch {
	case dy == 0 && dx == 1:
		return East, nil
	case dy == 0 && dx == t.W-1:
		return West, nil
	case dx == 0 && dy == 1:
		return South, nil
	case dx == 0 && dy == t.H-1:
		return North, nil
	}
	return Local, fmt.Errorf("topology: torus nodes %d and %d are not adjacent", a, b)
}

// HopDist returns the minimal hop count, per-dimension modular distance.
func (t Torus) HopDist(a, b int) int {
	ax, ay := t.Coord(a)
	bx, by := t.Coord(b)
	dx := abs(ax - bx)
	if t.W-dx < dx {
		dx = t.W - dx
	}
	dy := abs(ay - by)
	if t.H-dy < dy {
		dy = t.H - dy
	}
	return dx + dy
}

// minimalX returns the shortest-direction move in X from sx toward dx, or
// Local when already aligned. Ties (exactly half way around an even ring)
// resolve East.
func (t Torus) minimalX(sx, dx int) Dir {
	if sx == dx {
		return Local
	}
	fwd := (dx - sx + t.W) % t.W // hops going East
	if fwd <= t.W-fwd {
		return East
	}
	return West
}

// minimalY is minimalX for the Y dimension; ties resolve South.
func (t Torus) minimalY(sy, dy int) Dir {
	if sy == dy {
		return Local
	}
	fwd := (dy - sy + t.H) % t.H // hops going South
	if fwd <= t.H-fwd {
		return South
	}
	return North
}

// MinimalSet returns the minimal-progress directions (at most one per
// dimension; ties resolve East/South so routing stays deterministic).
func (t Torus) MinimalSet(src, dst int) DirSet {
	var out DirSet
	sx, sy := t.Coord(src)
	dx, dy := t.Coord(dst)
	if d := t.minimalX(sx, dx); d != Local {
		out.Add(d)
	}
	if d := t.minimalY(sy, dy); d != Local {
		out.Add(d)
	}
	return out
}

// XYDir returns the next hop under dimension-ordered routing: resolve X
// completely (shortest way around), then Y, or Local at the destination.
func (t Torus) XYDir(src, dst int) Dir {
	sx, sy := t.Coord(src)
	dx, dy := t.Coord(dst)
	if d := t.minimalX(sx, dx); d != Local {
		return d
	}
	return t.minimalY(sy, dy)
}

// WrapLink reports whether the output link of id in direction d is the
// wraparound link of its row or column — the dateline of the escape-VC
// discipline.
func (t Torus) WrapLink(id int, d Dir) bool {
	x, y := t.Coord(id)
	switch d {
	case East:
		return x == t.W-1
	case West:
		return x == 0
	case North:
		return y == 0
	case South:
		return y == t.H-1
	}
	return false
}

// EscapeVCs returns the escape VCs the dateline discipline needs: two.
func (t Torus) EscapeVCs() int { return 2 }

// NumLinks returns the directed link count: every router drives all four
// grid ports.
func (t Torus) NumLinks() int { return 4 * t.W * t.H }

// LinkLengthFactor returns the link length relative to a mesh link of the
// same grid: 2.0 for the standard folded-torus layout, whose links span
// two tile pitches to avoid the long wrap-around wire.
func (t Torus) LinkLengthFactor() float64 { return 2.0 }
