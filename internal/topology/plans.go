package topology

import (
	"fmt"
	"slices"
)

//go:generate go run ../../cmd/nordplan -emit-plans plans_gen.go

// The plan table (plans_gen.go) holds what the Section 4.4 planner picks
// for the grids simulations are normally run on, so that a process starts
// a NoRD run on one of them by lookup and not by search. The paper's
// planner is an offline program and its set is fixed at design time; the
// table is that design-time output, committed. The planner stays its
// generator (DefaultPlan, driven by `nordplan -emit-plans`) and verifier
// (StandardGrid.Verify), and still serves every grid the table does not
// cover.
//
// An entry is DefaultPlan's result: Planner.PerformanceCentric(3N/8) on
// NewRing's ring with NewPlanner's hop costs. Anything that changes what
// that picks — the planner, the ring layout, the costs, the 3N/8 ratio —
// needs `go generate ./internal/topology` (about 5 minutes on 2 CPUs);
// `nordplan -verify-plans` and TestStandardPlansMatchPlanner catch a
// table that was not regenerated.

// MaxStandardSide is the side of the largest grid in the plan table.
const MaxStandardSide = 16

// StandardGrid names one square grid of the plan table.
type StandardGrid struct {
	Kind Kind
	Side int
}

func (g StandardGrid) String() string { return fmt.Sprintf("%v %dx%d", g.Kind, g.Side, g.Side) }

// Nodes returns the grid's router count.
func (g StandardGrid) Nodes() int { return g.Side * g.Side }

// StandardGrids lists the grids the plan table covers that have at most
// maxNodes routers (0 = all of them), mesh before torus, by side: every
// square grid from 2x2 to 16x16 that NewRing can thread a bypass ring
// through, which is the even sides on a mesh and every side on a torus.
// The concentrated mesh has the mesh's router graph and ring, hence the
// mesh's plan, and no entries of its own.
func StandardGrids(maxNodes int) []StandardGrid {
	var grids []StandardGrid
	for _, kind := range []Kind{KindMesh, KindTorus} {
		for side := 2; side <= MaxStandardSide; side++ {
			g := StandardGrid{kind, side}
			if maxNodes > 0 && g.Nodes() > maxNodes {
				break
			}
			if _, err := NewRing(MustNew(kind, side, side)); err == nil {
				grids = append(grids, g)
			}
		}
	}
	return grids
}

// planTable returns the table of a router graph, nil for a kind that has
// none.
func planTable(kind Kind) *[MaxStandardSide + 1][]int {
	switch kind.RouterGraph() {
	case KindMesh:
		return &meshPlans
	case KindTorus:
		return &torusPlans
	}
	return nil
}

// StandardPlan returns the performance-centric router set of a w x h grid
// from the plan table, and whether the table has the grid. The slice is
// shared: do not modify it.
func StandardPlan(kind Kind, w, h int) ([]int, bool) {
	t := planTable(kind)
	if t == nil || w != h || w < 0 || w > MaxStandardSide || t[w] == nil {
		return nil, false
	}
	return t[w], true
}

// DefaultPlan runs the planner for a w x h grid the way simulations use
// it — the default ring, the default hop costs, 3N/8 routers (the paper's
// 6-of-16 ratio) — whether or not the plan table has the grid. It is the
// search whose results the table holds.
func DefaultPlan(kind Kind, w, h int) ([]int, error) {
	topo, err := New(kind, w, h)
	if err != nil {
		return nil, err
	}
	ring, err := NewRing(topo)
	if err != nil {
		return nil, err
	}
	return NewPlanner(topo, ring).PerformanceCentric(3 * topo.N() / 8)
}

// Verify runs the planner on the grid and reports a table entry that is
// missing or differs from what it picks.
func (g StandardGrid) Verify() error {
	want, err := DefaultPlan(g.Kind, g.Side, g.Side)
	if err != nil {
		return fmt.Errorf("%v: %w", g, err)
	}
	got, ok := StandardPlan(g.Kind, g.Side, g.Side)
	if !ok {
		return fmt.Errorf("%v: not in the plan table; run go generate ./internal/topology", g)
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("%v: plan table is stale; run go generate ./internal/topology\n table   %v\n planner %v", g, got, want)
	}
	return nil
}
