// Command nordplan runs the offline Floyd-Warshall planner of Section 4.4:
// it prints the Figure 6 trade-off curve (average node-to-node distance
// and per-hop latency versus the number of powered-on routers) and the
// selected performance-centric router set.
//
//	nordplan                 # the paper's 4x4 mesh
//	nordplan -width 8 -height 8 -k 24
//
// It is the offline program: it always runs the planner, never reads the
// plan table simulations start from (internal/topology/plans_gen.go). It
// is also that table's generator and verifier:
//
//	nordplan -emit-plans plans_gen.go    # what go generate ./internal/topology runs
//	nordplan -verify-plans               # every entry against a fresh search (minutes)
//	nordplan -verify-plans -max-nodes 100    # the entries up to 10x10 (a second)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nord/internal/topology"
)

func main() {
	var (
		width  = flag.Int("width", 4, "router-grid width")
		height = flag.Int("height", 4, "router-grid height")
		topoN  = flag.String("topology", "mesh", "interconnect: mesh, torus or cmesh")
		k      = flag.Int("k", 0, "performance-centric set size (0 = 3N/8, the paper's 6-of-16 ratio)")

		emit     = flag.String("emit-plans", "", "plan the standard grids and write the plan table (Go source) to this `file`")
		verify   = flag.Bool("verify-plans", false, "plan the standard grids and compare each with its plan-table entry")
		maxNodes = flag.Int("max-nodes", 0, "with -emit-plans / -verify-plans: only grids of at most this many routers (0 = all)")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	switch {
	case *maxNodes < 0:
		fail(fmt.Errorf("-max-nodes %d is negative", *maxNodes))
	case *emit != "":
		src, err := planTableSource(*maxNodes)
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*emit, src, 0o644); err != nil {
			fail(err)
		}
		return
	case *verify:
		for _, g := range topology.StandardGrids(*maxNodes) {
			start := time.Now()
			if err := g.Verify(); err != nil {
				fail(err)
			}
			logPlanned(g, start)
		}
		return
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
		fmt.Printf("%dx%d %v: exhaustive search infeasible; greedy selection only\n", *width, *height, kind)
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

// logPlanned reports on standard error a standard grid whose search began
// at start and has finished: the table modes run for minutes.
func logPlanned(g topology.StandardGrid, start time.Time) {
	fmt.Fprintf(os.Stderr, "%-12v %7.2fs\n", g, time.Since(start).Seconds())
}
