// Command nordbench runs the PARSEC-like suite across the four designs
// and prints the Figure 8-12 tables, or the Figure 3 idle-period
// analysis with -idle. (Speed is measured by the ladder under bench/,
// not here.)
//
//	nordbench -scale 0.2          # 20% of the default instruction quota
//	nordbench -idle               # Section 3.2 idle-period statistics
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"nord/internal/noc"
	"nord/internal/profiling"
	"nord/internal/sim"
)

func main() {
	var (
		scale      = flag.Float64("scale", 0.2, "instruction-count scale (1.0 = 60k instructions/core)")
		seed       = flag.Int64("seed", 1, "random seed")
		idle       = flag.Bool("idle", false, "only run the No_PG idle-period analysis (Figure 3 / Section 3.2)")
		quiet      = flag.Bool("quiet", false, "suppress progress output")
		csvPath    = flag.String("csv", "", "also write the raw per-cell results to a CSV file")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProfiles()

	fail := func(err error) {
		stopProfiles()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *idle {
		rows, err := sim.Fig3IdlePeriods(*scale, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Println("Section 3.2 / Figure 3: router idleness under No_PG")
		fmt.Printf("%-14s %12s %22s\n", "benchmark", "idle frac", "idle periods <= BET")
		sum := 0.0
		for _, r := range rows {
			fmt.Printf("%-14s %11.1f%% %21.1f%%\n", r.Benchmark, 100*r.IdleFrac, 100*r.LEBETFrac)
			sum += r.LEBETFrac
		}
		fmt.Printf("%-14s %12s %21.1f%%   (paper: >61%%)\n", "AVG", "", 100*sum/float64(len(rows)))
		return
	}

	progress := func(s string) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "running %s\n", s)
		}
	}
	sr, err := sim.RunSuite(context.Background(), *scale, *seed, progress)
	if err != nil {
		fail(err)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fail(err)
		}
		if err := sim.WriteSuiteCSV(f, sr); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}

	rows8, avg8 := sr.Fig8StaticEnergy()
	fmt.Print(sim.FormatMatrix("\nFigure 8: router static energy (normalised to No_PG)", rows8, sr.Benchmarks, avg8))

	rows9a, avg9a := sr.Fig9aOverheadEnergy()
	fmt.Print(sim.FormatMatrix("\nFigure 9(a): power-gating overhead energy (normalised to Conv_PG)", rows9a, sr.Benchmarks, avg9a))

	rows9b, avg9b := sr.Fig9bWakeups()
	fmt.Print(sim.FormatMatrix("\nFigure 9(b): router wakeups (normalised to Conv_PG)", rows9b, sr.Benchmarks, avg9b))

	fmt.Println("\nFigure 10: NoC energy breakdown (normalised to the No_PG total)")
	fmt.Printf("%-14s %-14s %10s %10s %10s %10s %10s %10s\n",
		"benchmark", "design", "rtr.stat", "rtr.dyn", "lnk.stat", "lnk.dyn", "overhead", "total")
	bd := sr.Fig10Breakdown()
	for _, b := range sr.Benchmarks {
		for _, d := range noc.Designs() {
			e := bd[b][d]
			fmt.Printf("%-14s %-14s %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f\n",
				b, d, e.RouterStatic, e.RouterDynamic, e.LinkStatic, e.LinkDynamic, e.PGOverhead, e.Total())
		}
	}

	fmt.Println("\nFigure 11: average packet latency (cycles)")
	lat := sr.Fig11Latency()
	fmt.Print(sim.FormatMatrix("", lat, sr.Benchmarks, nil))
	inc := sr.LatencyIncreaseAvg()
	fmt.Printf("average increase over No_PG: Conv_PG %+.1f%%  Conv_PG_OPT %+.1f%%  NoRD %+.1f%%  (paper: +63.8%% / +41.5%% / +15.2%%)\n",
		100*inc[noc.ConvPG], 100*inc[noc.ConvPGOpt], 100*inc[noc.NoRD])

	rows12, avg12 := sr.Fig12ExecTime()
	fmt.Print(sim.FormatMatrix("\nFigure 12: execution time (normalised to No_PG)", rows12, sr.Benchmarks, avg12))
	fmt.Printf("(paper: Conv_PG +11.7%%, Conv_PG_OPT +8.1%%, NoRD +3.9%%)\n")
}
