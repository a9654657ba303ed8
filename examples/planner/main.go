// Planner: the Section 4.4 asymmetric-threshold workflow — compute the
// Figure 6 trade-off with the offline Floyd-Warshall planner, pick the
// performance-centric router class, and show its effect on a NoRD run.
//
//	go run ./examples/planner
package main

import (
	"fmt"
	"log"

	"nord"
)

func main() {
	// The planner picks the routers whose being powered on best shortens
	// average node-to-node distance (the Figure 6 knee).
	set, err := nord.PerfCentricSet(4, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("performance-centric routers (4x4): %v\n", set)
	fmt.Println("these wake at threshold 1 (early) and sleep late; the rest at threshold 6")

	run := func(noPerf bool) nord.Result {
		res, err := nord.RunSynthetic(nord.SynthConfig{
			Design:        nord.NoRD,
			Rate:          0.08,
			Warmup:        5_000,
			Measure:       40_000,
			Seed:          21,
			NoPerfCentric: noPerf,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	asym := run(false)
	sym := run(true)
	fmt.Printf("\n%-28s %10s %10s %12s\n", "", "latency", "wakeups", "static (uJ)")
	fmt.Printf("%-28s %10.1f %10d %12.3f\n", "asymmetric thresholds", asym.AvgPacketLatency, asym.Wakeups, asym.Energy.RouterStatic*1e6)
	fmt.Printf("%-28s %10.1f %10d %12.3f\n", "symmetric (all power-class)", sym.AvgPacketLatency, sym.Wakeups, sym.Energy.RouterStatic*1e6)
	fmt.Println("\nasymmetric thresholds trade a little static energy for lower latency")
	fmt.Println("by keeping a small, well-placed router subset awake (Section 4.4).")
}
