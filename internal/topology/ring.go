package topology

import "fmt"

// Ring is the chip-wide unidirectional bypass ring of NoRD (Section 4.2).
// It is a Hamiltonian cycle over the topology's links: each router
// contributes exactly one Bypass Inport (the input port fed by its ring
// predecessor) and one Bypass Outport (the output port feeding its ring
// successor). Packets traversing a powered-off router enter on the Bypass
// Inport, pass through the node's network interface, and leave on the
// Bypass Outport, so even with every router gated off the ring keeps all
// nodes connected.
type Ring struct {
	topo Topology
	// order is the ring as a node sequence; order[i+1] succeeds order[i]
	// and order[0] succeeds order[len-1].
	order []int
	// succ[v] / pred[v] are v's ring neighbors.
	succ, pred []int
	// outDir[v] is v's Bypass Outport direction (link to succ[v]);
	// inDir[v] is v's Bypass Inport direction (link from pred[v]).
	outDir, inDir []Dir
	// pos[v] is v's index within order, used for the escape-VC dateline.
	pos []int
}

// NewRing constructs the bypass ring for a topology. Grids with an even
// dimension use the boustrophedon ("comb") Hamiltonian cycle: row 0 is
// walked left to right, columns 1..W-1 are snaked downward through the
// remaining rows, and column 0 is the return path (applied to the
// transposed grid when only W is even) — identical on mesh, cmesh and
// torus, so even-grid NoRD behaves the same across them. An odd x odd
// grid has no Hamiltonian cycle over mesh links (odd node count on a
// bipartite graph), but a torus closes one through its wrap links
// (torusOddOrder); for mesh and cmesh it remains an error.
//
// For the paper's 4x4 example this yields
// 0,1,2,3,7,6,5,9,10,11,15,14,13,12,8,4 -> 0, the serpentine of
// Figure 4(a).
func NewRing(t Topology) (*Ring, error) {
	w, h := t.Grid()
	if !HasRing(t.Kind(), w, h) {
		return nil, fmt.Errorf("topology: no Hamiltonian bypass ring exists for odd %dx%d %v", w, h, t.Kind())
	}
	var order []int
	switch {
	case h%2 == 0:
		order = combOrder(w, h, func(x, y int) int { return t.ID(x, y) })
	case w%2 == 0:
		// Transpose: walk the comb over (y, x).
		order = combOrder(h, w, func(x, y int) int { return t.ID(y, x) })
	default:
		order = torusOddOrder(w, h, func(x, y int) int { return t.ID(x, y) })
	}
	return ringFromOrder(t, order)
}

// HasRing reports whether NewRing builds a ring for a w x h grid of kind
// k: any grid with an even side, and every torus. It is a predicate, not
// a build, so parameter validation can ask it on every request.
func HasRing(k Kind, w, h int) bool {
	return w%2 == 0 || h%2 == 0 || k == KindTorus
}

// combOrder emits the comb Hamiltonian cycle over a w x h grid (h even)
// as a node sequence, using id to translate grid coordinates to node ids.
func combOrder(w, h int, id func(x, y int) int) []int {
	order := make([]int, 0, w*h)
	// Row 0, left to right.
	for x := 0; x < w; x++ {
		order = append(order, id(x, 0))
	}
	// Rows 1..h-1 over columns 1..w-1, boustrophedon starting rightward
	// edge (row 1 walks right->left so it connects to id(w-1, 0)).
	for y := 1; y < h; y++ {
		if y%2 == 1 {
			for x := w - 1; x >= 1; x-- {
				order = append(order, id(x, y))
			}
		} else {
			for x := 1; x < w; x++ {
				order = append(order, id(x, y))
			}
		}
	}
	// Return up column 0 from the bottom row to row 1 (row 0 col 0 was
	// emitted first and closes the cycle).
	for y := h - 1; y >= 1; y-- {
		order = append(order, id(0, y))
	}
	return order
}

// torusOddOrder emits a Hamiltonian cycle over an odd x odd torus (both
// dimensions odd, w <= h after the caller's orientation; this function
// transposes internally when w > h). Each row is traversed fully in one
// direction — an Eastward row uses the row's wrap link and shifts the
// entry column of the next row by -1, a Westward row by +1 — and rows are
// chained by South links, the last one wrapping back to row 0. Closure
// needs the total shift to vanish mod w: with e Eastward and (h-e)
// Westward rows that is 2e ≡ h (mod w), solved by e = (h+w)/2 (both odd,
// so integral; w <= h keeps 0 <= e <= h).
func torusOddOrder(w, h int, id func(x, y int) int) []int {
	if w > h {
		return torusOddOrder(h, w, func(x, y int) int { return id(y, x) })
	}
	east := (h + w) / 2
	order := make([]int, 0, w*h)
	col := 0
	for y := 0; y < h; y++ {
		if y < east {
			for i := 0; i < w; i++ {
				order = append(order, id((col+i)%w, y))
			}
			col = (col - 1 + w) % w
		} else {
			for i := 0; i < w; i++ {
				order = append(order, id((col-i+w)%w, y))
			}
			col = (col + 1) % w
		}
	}
	return order
}

// RingFromOrder builds a Ring from an explicit node sequence, validating
// that it is a Hamiltonian cycle over topology links. It allows callers to
// experiment with alternative bypass placements (Section 4.4 notes the
// classification/placement space is open).
func RingFromOrder(t Topology, order []int) (*Ring, error) {
	return ringFromOrder(t, append([]int(nil), order...))
}

func ringFromOrder(t Topology, order []int) (*Ring, error) {
	n := t.N()
	if len(order) != n {
		return nil, fmt.Errorf("topology: ring order has %d nodes, topology has %d", len(order), n)
	}
	r := &Ring{
		topo:   t,
		order:  order,
		succ:   make([]int, n),
		pred:   make([]int, n),
		outDir: make([]Dir, n),
		inDir:  make([]Dir, n),
		pos:    make([]int, n),
	}
	seen := make([]bool, n)
	for i, v := range order {
		if !t.Valid(v) {
			return nil, fmt.Errorf("topology: ring order contains invalid node %d", v)
		}
		if seen[v] {
			return nil, fmt.Errorf("topology: ring order visits node %d twice", v)
		}
		seen[v] = true
		r.pos[v] = i
	}
	for i, v := range order {
		next := order[(i+1)%n]
		d, err := t.DirTo(v, next)
		if err != nil {
			return nil, fmt.Errorf("topology: ring step %d->%d is not a link: %w", v, next, err)
		}
		r.succ[v] = next
		r.pred[next] = v
		r.outDir[v] = d
		r.inDir[next] = d.Opposite()
	}
	return r, nil
}

// Topo returns the underlying topology.
func (r *Ring) Topo() Topology { return r.topo }

// Order returns the ring as a node sequence (do not modify).
func (r *Ring) Order() []int { return r.order }

// Succ returns the ring successor of v (the router reached through v's
// Bypass Outport).
func (r *Ring) Succ(v int) int { return r.succ[v] }

// Pred returns the ring predecessor of v (the router feeding v's Bypass
// Inport).
func (r *Ring) Pred(v int) int { return r.pred[v] }

// OutDir returns the direction of v's Bypass Outport.
func (r *Ring) OutDir(v int) Dir { return r.outDir[v] }

// InDir returns the direction of v's Bypass Inport.
func (r *Ring) InDir(v int) Dir { return r.inDir[v] }

// Pos returns v's index along the ring; node at position 0 starts the
// cycle and the link into it is the escape-VC dateline.
func (r *Ring) Pos(v int) int { return r.pos[v] }

// CrossesDateline reports whether the ring link out of v wraps past the
// ring origin. Escape packets switch from escape VC 0 to escape VC 1 when
// crossing the dateline, breaking the ring's cyclic channel dependence
// (the "two VCs to break cyclic dependence" of Section 4.2).
func (r *Ring) CrossesDateline(v int) bool {
	return r.pos[r.succ[v]] == 0
}

// RingDist returns the number of ring hops from a to b travelling in ring
// direction.
func (r *Ring) RingDist(a, b int) int {
	n := len(r.order)
	d := r.pos[b] - r.pos[a]
	if d < 0 {
		d += n
	}
	return d
}
