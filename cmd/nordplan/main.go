// Command nordplan runs the offline Floyd-Warshall planner of Section 4.4:
// it prints the Figure 6 trade-off curve (average node-to-node distance
// and per-hop latency versus the number of powered-on routers) and the
// selected performance-centric router set.
//
//	nordplan                 # the paper's 4x4 mesh
//	nordplan -width 8 -height 8 -k 24
package main

import (
	"flag"
	"fmt"
	"os"

	"nord/internal/topology"
)

func main() {
	var (
		width  = flag.Int("width", 4, "router-grid width")
		height = flag.Int("height", 4, "router-grid height")
		topoN  = flag.String("topology", "mesh", "interconnect: mesh, torus or cmesh")
		k      = flag.Int("k", 0, "performance-centric set size (0 = 3N/8, the paper's 6-of-16 ratio)")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	kind, err := topology.KindByName(*topoN)
	if err != nil {
		fail(err)
	}
	mesh, err := topology.New(kind, *width, *height)
	if err != nil {
		fail(err)
	}
	ring, err := topology.NewRing(mesh)
	if err != nil {
		fail(err)
	}
	pl := topology.NewPlanner(mesh, ring)

	if mesh.N() <= 16 {
		pts, err := pl.Tradeoff()
		if err != nil {
			fail(err)
		}
		fmt.Printf("Figure 6: %dx%d %v, bypass ring %v\n", *width, *height, kind, ring.Order())
		fmt.Printf("%6s %16s %16s\n", "on", "avg distance", "per-hop latency")
		for _, p := range pts {
			fmt.Printf("%6d %16.3f %16.3f\n", p.K, p.AvgHops, p.PerHopCycles)
		}
	} else {
		fmt.Printf("%dx%d mesh: exhaustive search infeasible; greedy selection only\n", *width, *height)
	}

	kk := *k
	if kk == 0 {
		kk = 3 * mesh.N() / 8
	}
	set, err := pl.PerformanceCentric(kk)
	if err != nil {
		fail(err)
	}
	on := make([]bool, mesh.N())
	for _, v := range set {
		on[v] = true
	}
	hops, perHop, err := pl.Eval(on)
	if err != nil {
		fail(err)
	}
	fmt.Printf("\nperformance-centric set (K=%d): %v\n", kk, set)
	fmt.Printf("avg distance %.3f hops, per-hop latency %.3f cycles\n", hops, perHop)
}
