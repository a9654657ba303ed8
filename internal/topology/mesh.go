// Package topology models the 2D mesh used by the paper, the chip-wide
// unidirectional bypass ring that NoRD threads through every router
// (Section 4.2, Figure 4a), and the offline Floyd-Warshall planner used to
// select performance-centric routers (Section 4.4, Figure 6).
package topology

import "fmt"

// Dir identifies a router port direction in the mesh. Local is the port
// connecting the router to its node's network interface.
type Dir uint8

const (
	East Dir = iota
	West
	North
	South
	Local
	// NumDirs is the number of router ports (4 mesh + 1 local).
	NumDirs = 5
)

// String implements fmt.Stringer.
func (d Dir) String() string {
	switch d {
	case East:
		return "E"
	case West:
		return "W"
	case North:
		return "N"
	case South:
		return "S"
	case Local:
		return "L"
	default:
		return fmt.Sprintf("dir(%d)", uint8(d))
	}
}

// Opposite returns the facing direction (the input port a flit sent on
// output d arrives at). Only the four grid directions have an opposite;
// anything else — Local or a corrupted value — panics, so a bad port
// table surfaces immediately instead of silently mis-delivering flits to
// a node's local port.
func (d Dir) Opposite() Dir {
	switch d {
	case East:
		return West
	case West:
		return East
	case North:
		return South
	case South:
		return North
	default:
		panic(fmt.Sprintf("topology: direction %v has no opposite", d))
	}
}

// Mesh is a W x H 2D mesh. Node IDs are assigned row-major: node
// row*W + col, with row 0 at the top (North) edge, matching Figure 4(a).
type Mesh struct {
	W, H int
}

// NewMesh returns a mesh of the given dimensions. Width and height must be
// at least 2 (the bypass ring needs a Hamiltonian cycle, and the paper
// evaluates 4x4 and 8x8).
func NewMesh(w, h int) (Mesh, error) {
	if w < 2 || h < 2 {
		return Mesh{}, fmt.Errorf("topology: mesh must be at least 2x2, got %dx%d", w, h)
	}
	return Mesh{W: w, H: h}, nil
}

// MustMesh is NewMesh that panics on invalid dimensions; for tests and
// internal construction from validated configuration.
func MustMesh(w, h int) Mesh {
	m, err := NewMesh(w, h)
	if err != nil {
		panic(err)
	}
	return m
}

// N returns the number of nodes.
func (m Mesh) N() int { return m.W * m.H }

// Coord returns the (col, row) coordinate of node id.
func (m Mesh) Coord(id int) (x, y int) { return id % m.W, id / m.W }

// ID returns the node id at (col, row).
func (m Mesh) ID(x, y int) int { return y*m.W + x }

// Valid reports whether id names a node of the mesh.
func (m Mesh) Valid(id int) bool { return id >= 0 && id < m.N() }

// Neighbor returns the node adjacent to id in direction d, and whether it
// exists (edge routers lack some neighbors). Direction Local has no
// neighbor.
func (m Mesh) Neighbor(id int, d Dir) (int, bool) {
	x, y := m.Coord(id)
	switch d {
	case East:
		x++
	case West:
		x--
	case North:
		y--
	case South:
		y++
	default:
		return -1, false
	}
	if x < 0 || x >= m.W || y < 0 || y >= m.H {
		return -1, false
	}
	return m.ID(x, y), true
}

// DirTo returns the direction of the mesh link from a to b, which must be
// adjacent.
func (m Mesh) DirTo(a, b int) (Dir, error) {
	ax, ay := m.Coord(a)
	bx, by := m.Coord(b)
	switch {
	case bx == ax+1 && by == ay:
		return East, nil
	case bx == ax-1 && by == ay:
		return West, nil
	case bx == ax && by == ay-1:
		return North, nil
	case bx == ax && by == ay+1:
		return South, nil
	}
	return Local, fmt.Errorf("topology: nodes %d and %d are not adjacent", a, b)
}

// HopDist returns the Manhattan distance between two nodes.
func (m Mesh) HopDist(a, b int) int {
	ax, ay := m.Coord(a)
	bx, by := m.Coord(b)
	return abs(ax-bx) + abs(ay-by)
}

// XYDir returns the next direction under dimension-order (XY) routing from
// src to dst, or Local if src == dst. XY routing resolves the X dimension
// completely before Y and is deadlock-free on a mesh, so conventional
// designs use it on their escape virtual channel.
func (m Mesh) XYDir(src, dst int) Dir {
	sx, sy := m.Coord(src)
	dx, dy := m.Coord(dst)
	switch {
	case dx > sx:
		return East
	case dx < sx:
		return West
	case dy > sy:
		return South
	case dy < sy:
		return North
	default:
		return Local
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// ---------------------------------------------------------------------
// Topology interface methods. Mesh is the reference implementation: no
// wrap links, one escape VC, one terminal per router.

var _ Topology = Mesh{}

// Kind identifies the topology family.
func (m Mesh) Kind() Kind { return KindMesh }

// Grid returns the router-grid dimensions.
func (m Mesh) Grid() (w, h int) { return m.W, m.H }

// MinimalSet returns the mesh directions that make progress from src
// toward dst (0, 1 or 2 directions; empty when src == dst).
func (m Mesh) MinimalSet(src, dst int) DirSet {
	var out DirSet
	sx, sy := m.Coord(src)
	dx, dy := m.Coord(dst)
	if dx > sx {
		out.Add(East)
	} else if dx < sx {
		out.Add(West)
	}
	if dy > sy {
		out.Add(South)
	} else if dy < sy {
		out.Add(North)
	}
	return out
}

// WrapLink reports whether (id, d) is a wraparound link; a mesh has none.
func (m Mesh) WrapLink(id int, d Dir) bool { return false }

// EscapeVCs returns the escape VCs XY routing needs on a mesh: one.
func (m Mesh) EscapeVCs() int { return 1 }

// NumLinks returns the number of directed router-to-router links.
func (m Mesh) NumLinks() int { return 2 * (m.W*(m.H-1) + m.H*(m.W-1)) }

// LinkLengthFactor returns the link length relative to a mesh link: 1.
func (m Mesh) LinkLengthFactor() float64 { return 1.0 }

// Concentration returns the terminals per router: one.
func (m Mesh) Concentration() int { return 1 }

// Terminals returns the terminal grid: the router grid itself.
func (m Mesh) Terminals() Mesh { return m }

// TerminalRouter maps a terminal to its router: the identity.
func (m Mesh) TerminalRouter(t int) int { return t }
