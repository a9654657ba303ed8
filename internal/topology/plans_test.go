package topology

import (
	"flag"
	"testing"
)

var allPlans = flag.Bool("all-plans", false,
	"TestStandardPlansMatchPlanner: also re-plan the table's grids above 10x10 (minutes)")

// TestStandardPlansMatchPlanner: the plan table is the planner's output —
// every entry equals a fresh search, and the table has an entry for every
// standard grid and for nothing else. Grids up to 8x8 are always checked,
// up to 10x10 unless -short, the rest (12x12 and up: seconds to half a
// minute each) with -all-plans; CI's bench job runs those through
// `nordplan -verify-plans`.
func TestStandardPlansMatchPlanner(t *testing.T) {
	limit := 100
	switch {
	case *allPlans:
		limit = 0
	case testing.Short():
		limit = 64
	}
	for _, g := range StandardGrids(limit) {
		t.Run(g.String(), func(t *testing.T) {
			if err := g.Verify(); err != nil {
				t.Error(err)
			}
		})
	}

	standard := map[StandardGrid]bool{}
	for _, g := range StandardGrids(0) {
		standard[g] = true
		set, ok := StandardPlan(g.Kind, g.Side, g.Side)
		if !ok {
			t.Errorf("%v: not in the plan table", g)
		} else if want := 3 * g.Nodes() / 8; len(set) != want {
			t.Errorf("%v: table entry has %d routers, want %d", g, len(set), want)
		}
	}
	if len(standard) != 8+15 {
		t.Errorf("%d standard grids, want 8 meshes (even sides) + 15 tori (every side)", len(standard))
	}
	for _, kind := range []Kind{KindMesh, KindTorus} {
		for side, set := range planTable(kind) {
			if set != nil && !standard[StandardGrid{kind, side}] {
				t.Errorf("plan table has a %v %dx%d entry, which is not a standard grid", kind, side, side)
			}
		}
	}
}

// TestStandardPlanLookup: what the table answers and what it leaves to
// the planner.
func TestStandardPlanLookup(t *testing.T) {
	mesh, ok := StandardPlan(KindMesh, 8, 8)
	if !ok {
		t.Fatal("8x8 mesh is not in the plan table")
	}
	if cmesh, ok := StandardPlan(KindCMesh, 8, 8); !ok || &cmesh[0] != &mesh[0] {
		t.Error("cmesh 8x8 does not share the mesh's entry")
	}
	for _, g := range []struct {
		kind Kind
		w, h int
	}{
		{KindMesh, 8, 4}, {KindMesh, 14, 2}, // rectangles
		{KindMesh, 5, 5}, {KindCMesh, 3, 3}, // no bypass ring
		{KindMesh, 18, 18}, {KindTorus, 17, 17}, // beyond the table
		{KindMesh, 0, 0}, {KindMesh, -4, -4}, {KindMesh, 1, 1},
		{Kind(7), 4, 4},
	} {
		if set, ok := StandardPlan(g.kind, g.w, g.h); ok {
			t.Errorf("StandardPlan(%v, %d, %d) = %v, want no entry", g.kind, g.w, g.h, set)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { StandardPlan(KindTorus, 16, 16) }); allocs != 0 {
		t.Errorf("a lookup allocates %.0f times", allocs)
	}
}
