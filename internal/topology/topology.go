package topology

import "fmt"

// Kind enumerates the supported network topologies. The zero value is the
// paper's 2D mesh, so existing configurations keep their meaning.
type Kind uint8

const (
	// KindMesh is the paper's W x H 2D mesh (Table 1).
	KindMesh Kind = iota
	// KindTorus is a W x H 2D torus: the mesh plus wraparound links on
	// every row and column, routed dimension-ordered with a dateline VC
	// discipline on the escape class.
	KindTorus
	// KindCMesh is a concentrated mesh: a W x H router grid where each
	// router serves a 2x2 tile of C=4 terminals through a widened local
	// port (the terminal grid is 2W x 2H).
	KindCMesh
)

// String implements fmt.Stringer with the names used in configs and CLIs.
func (k Kind) String() string {
	switch k {
	case KindMesh:
		return "mesh"
	case KindTorus:
		return "torus"
	case KindCMesh:
		return "cmesh"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// RouterGraph returns the kind whose router-to-router graph (links,
// bypass ring, and therefore planner output) k has: a concentrated mesh
// is a mesh between routers; the others are their own.
func (k Kind) RouterGraph() Kind {
	if k == KindCMesh {
		return KindMesh
	}
	return k
}

// KindByName parses a topology name as used in specs and CLI flags.
func KindByName(name string) (Kind, error) {
	switch name {
	case "", "mesh":
		return KindMesh, nil
	case "torus":
		return KindTorus, nil
	case "cmesh", "concentrated", "concentrated_mesh":
		return KindCMesh, nil
	}
	return KindMesh, fmt.Errorf("topology: unknown topology %q (mesh, torus, cmesh)", name)
}

// DirSet is an allocation-free set of minimal-progress directions (0, 1 or
// 2 entries). The routing hot path keeps per-pair tables of these and falls
// back to computing them on the fly for very large networks.
type DirSet struct {
	Dirs [2]Dir
	Cnt  uint8
}

// Add appends a direction to the set.
func (s *DirSet) Add(d Dir) {
	s.Dirs[s.Cnt] = d
	s.Cnt++
}

// Topology is a routed network graph over a W x H router grid: node
// population and coordinates, the per-port neighbor map, deterministic
// minimal routing, and the link metadata the power and fault layers need.
// All implementations are immutable after construction and safe for
// concurrent use.
type Topology interface {
	// Kind identifies the concrete topology family.
	Kind() Kind
	// Grid returns the router-grid dimensions.
	Grid() (w, h int)
	// N returns the number of routers.
	N() int
	// Coord returns the (col, row) coordinate of router id.
	Coord(id int) (x, y int)
	// ID returns the router id at (col, row).
	ID(x, y int) int
	// Valid reports whether id names a router.
	Valid(id int) bool
	// Neighbor returns the router adjacent to id in direction d and
	// whether that port is wired (mesh edge routers lack some).
	Neighbor(id int, d Dir) (int, bool)
	// DirTo returns the direction of the link from a to b, which must be
	// adjacent (wrap links count as adjacency on a torus).
	DirTo(a, b int) (Dir, error)
	// HopDist returns the minimal hop count between two routers.
	HopDist(a, b int) int
	// MinimalSet returns the directions that make minimal progress from
	// src toward dst.
	MinimalSet(src, dst int) DirSet
	// XYDir returns the next hop under deterministic dimension-ordered
	// routing from src to dst, or Local when src == dst. This is the
	// escape path of the conventional designs; it must be deadlock-free
	// under the topology's escape-VC discipline (EscapeVCs).
	XYDir(src, dst int) Dir
	// WrapLink reports whether the output link of id in direction d is a
	// wraparound (dateline-crossing) link. Always false on a mesh.
	WrapLink(id int, d Dir) bool
	// EscapeVCs returns how many escape VCs per class deterministic
	// routing needs to stay deadlock-free: 1 on a mesh, 2 on a torus
	// (the dateline pair).
	EscapeVCs() int
	// NumLinks returns the number of directed router-to-router links,
	// the population the link static-power model charges.
	NumLinks() int
	// LinkLengthFactor scales link length (and so link energy) relative
	// to a mesh link of the same grid: 1.0 for the mesh, 2.0 for the
	// folded torus and the concentrated mesh's doubled tile pitch.
	LinkLengthFactor() float64
	// Concentration returns the number of terminals per router (1 except
	// for the concentrated mesh).
	Concentration() int
	// Terminals returns the terminal grid traffic patterns address. For
	// concentration 1 it is the router grid itself.
	Terminals() Mesh
	// TerminalRouter maps a terminal id onto the router serving it (the
	// identity for concentration 1).
	TerminalRouter(t int) int
}

// New constructs a topology of the given kind over a w x h router grid.
func New(kind Kind, w, h int) (Topology, error) {
	switch kind {
	case KindMesh:
		m, err := NewMesh(w, h)
		if err != nil {
			return nil, err
		}
		return m, nil
	case KindTorus:
		t, err := NewTorus(w, h)
		if err != nil {
			return nil, err
		}
		return t, nil
	case KindCMesh:
		c, err := NewCMesh(w, h)
		if err != nil {
			return nil, err
		}
		return c, nil
	}
	return nil, fmt.Errorf("topology: unknown topology kind %d", kind)
}

// MustNew is New that panics on invalid arguments; for tests and internal
// construction from validated configuration.
func MustNew(kind Kind, w, h int) Topology {
	t, err := New(kind, w, h)
	if err != nil {
		panic(err)
	}
	return t
}
