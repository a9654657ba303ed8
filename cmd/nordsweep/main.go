// Command nordsweep regenerates the paper's sweep figures:
//
//	nordsweep -fig7    bypass-ring threshold determination (Figure 7)
//	nordsweep -fig13   latency vs wakeup latency (Figure 13)
//	nordsweep -fig14   16-node latency & power vs load (Figure 14)
//	nordsweep -fig15   64-node uniform + bit-complement sweeps (Figure 15)
//	nordsweep -thresholds   symmetric wakeup-threshold sensitivity (Section 6.1)
//
// Each prints the series the corresponding figure plots (-csv for all but
// -thresholds). The load sweeps run their points on a GOMAXPROCS-wide
// pool, in a fixed order; with no figure flag the tool prints its usage
// and exits 2.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"nord/internal/noc"
	"nord/internal/sim"
)

func main() {
	var (
		fig7       = flag.Bool("fig7", false, "Figure 7: forced-off ring latency and VC-request metric vs load")
		thresholds = flag.Bool("thresholds", false, "Section 6.1 companion: symmetric wakeup-threshold sensitivity")
		fig13      = flag.Bool("fig13", false, "Figure 13: latency vs wakeup latency")
		fig14      = flag.Bool("fig14", false, "Figure 14: 16-node load sweep (latency and power)")
		fig15      = flag.Bool("fig15", false, "Figure 15: 64-node load sweeps (uniform and bit-complement)")
		measure    = flag.Int("measure", 100_000, "measured cycles per point")
		seed       = flag.Int64("seed", 1, "random seed")
		rate       = flag.Float64("rate", 0.05, "load for -fig13 (flits/node/cycle)")
		csvOut     = flag.Bool("csv", false, "emit CSV instead of tables")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	switch {
	case *fig7:
		rates := []float64{0.005, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.08, 0.10}
		pts, err := sim.Fig7WakeupThreshold(rates, *measure, *seed)
		if err != nil {
			fail(err)
		}
		if *csvOut {
			if err := sim.WriteFig7CSV(os.Stdout, pts); err != nil {
				fail(err)
			}
			return
		}
		fmt.Println("Figure 7: all routers forced off; traffic on the Bypass Ring only")
		fmt.Printf("%10s %12s %12s %18s\n", "rate", "latency", "throughput", "VCreq/10cycles")
		for _, p := range pts {
			fmt.Printf("%10.3f %12.1f %12.4f %18.2f\n", p.Rate, p.AvgLatency, p.Throughput, p.VCReqWindow)
		}
		fmt.Println("\nthresholds 1..5 are crossed where the last column passes those values;")
		fmt.Println("the ring saturates at a small fraction of full-network throughput (paper: ~14%).")

	case *fig13:
		pts, err := sim.Fig13WakeupLatency([]int{9, 12, 15, 18}, *rate, *measure, *seed)
		if err != nil {
			fail(err)
		}
		if *csvOut {
			if err := sim.WriteFig13CSV(os.Stdout, pts); err != nil {
				fail(err)
			}
			return
		}
		fmt.Printf("Figure 13: average latency vs wakeup latency (uniform random @ %.2f)\n", *rate)
		fmt.Printf("%-14s %8s %8s %8s %8s\n", "design", "wl=9", "wl=12", "wl=15", "wl=18")
		for _, d := range []noc.Design{noc.ConvPG, noc.ConvPGOpt, noc.NoRD} {
			fmt.Printf("%-14s", d)
			for _, wl := range []int{9, 12, 15, 18} {
				for _, p := range pts {
					if p.Design == d && p.WakeupLatency == wl {
						fmt.Printf(" %8.1f", p.AvgLatency)
					}
				}
			}
			fmt.Println()
		}

	case *fig14:
		rates := []float64{0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45}
		printSweep("Figure 14: 16-node uniform random", 4, 4, "uniform", rates, *measure, *seed, *csvOut, fail)

	case *fig15:
		rates := []float64{0.02, 0.05, 0.08, 0.12, 0.16, 0.20, 0.25, 0.30}
		printSweep("Figure 15 (left): 64-node uniform random", 8, 8, "uniform", rates, *measure, *seed, *csvOut, fail)
		bc := []float64{0.01, 0.03, 0.05, 0.08, 0.10, 0.12, 0.15}
		printSweep("Figure 15 (right): 64-node bit complement", 8, 8, "bitcomp", bc, *measure, *seed, *csvOut, fail)

	case *thresholds:
		if *csvOut {
			fail(fmt.Errorf("-thresholds has no CSV form; drop -csv"))
		}
		pts, err := sim.ThresholdSensitivity([]int{1, 2, 3, 4, 5, 8}, []float64{0.02, 0.05, 0.08}, *measure, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Println("Section 6.1 companion: symmetric wakeup thresholds on NoRD")
		fmt.Printf("%10s %8s %12s %10s %10s\n", "threshold", "rate", "latency", "wakeups", "power(W)")
		for _, p := range pts {
			fmt.Printf("%10d %8.3f %12.1f %10d %10.2f\n", p.Threshold, p.Rate, p.AvgLatency, p.Wakeups, p.PowerW)
		}

	default:
		flag.Usage()
		os.Exit(2)
	}
}

func printSweep(title string, w, h int, pattern string, rates []float64, measure int, seed int64, csvOut bool, fail func(error)) {
	pts, err := sim.LoadSweep(context.Background(), sim.SweepConfig{
		Width: w, Height: h, Pattern: pattern, Rates: rates, Measure: measure, Seed: seed,
	})
	if err != nil {
		fail(err)
	}
	if csvOut {
		if err := sim.WriteSweepCSV(os.Stdout, pts); err != nil {
			fail(err)
		}
		return
	}
	fmt.Println(title)
	fmt.Printf("%-14s %8s %12s %10s %12s %5s\n", "design", "rate", "latency", "power(W)", "throughput", "sat")
	for _, p := range pts {
		sat := ""
		if p.Saturated {
			sat = "*"
		}
		fmt.Printf("%-14s %8.3f %12.1f %10.2f %12.4f %5s\n", p.Design, p.Rate, p.AvgLatency, p.PowerW, p.Throughput, sat)
	}
	fmt.Println()
}
