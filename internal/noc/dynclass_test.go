package noc

import (
	"slices"
	"testing"

	"nord/internal/traffic"
)

// TestDynamicClassifyTracksHotspot: with demand concentrated on one
// corner of the mesh, dynamic reclassification should promote routers
// near the hotspot into the performance-centric class.
func TestDynamicClassifyTracksHotspot(t *testing.T) {
	p := DefaultParams(NoRD)
	p.DynamicClassify = true
	n := MustNew(p)
	n.BeginMeasurement()
	// All traffic into node 0 from its row/column neighborhood.
	inj := traffic.NewSynthetic(n, traffic.Hotspot([]int{0, 1, 4}, 1.0), 0.12, 3)
	for c := 0; c < 6_000; c++ {
		inj.Tick(n.Cycle())
		n.Tick()
	}
	perf := perfCentricIDs(n)
	if len(perf) != 6 {
		t.Fatalf("performance-centric class has %d routers, want 3N/8 = 6", len(perf))
	}
	nearHot := 0
	for _, id := range perf {
		if n.topo.HopDist(id, 0) <= 2 {
			nearHot++
		}
	}
	if nearHot < 3 {
		t.Errorf("only %d of the perf-centric routers %v are near the hotspot", nearHot, perf)
	}
}

// TestDynamicClassifyCorrectness: the reclassification machinery must not
// break delivery or conservation invariants.
func TestDynamicClassifyCorrectness(t *testing.T) {
	p := DefaultParams(NoRD)
	p.DynamicClassify = true
	stressOne(t, p, traffic.UniformRandom, 0.10, 6000, 81)
}

// TestPerfCentricNowStatic: with dynamic classification off, the routers
// holding the performance-centric thresholds now are the configured ones.
func TestPerfCentricNowStatic(t *testing.T) {
	p := DefaultParams(NoRD)
	p.PerfCentric = []int{2, 4, 5}
	n := MustNew(p)
	if got := perfCentricIDs(n); !slices.Equal(got, p.PerfCentric) {
		t.Fatalf("got %v, want the configured routers %v", got, p.PerfCentric)
	}
}

// perfCentricIDs lists the routers n.PerfCentric reports, in id order.
func perfCentricIDs(n *Network) []int {
	var ids []int
	for id := range n.routers {
		if n.PerfCentric(id) {
			ids = append(ids, id)
		}
	}
	return ids
}
