// Command nordbench runs the PARSEC-like suite across the four designs
// and prints the Figure 8-12 tables, the Figure 3 idle-period analysis
// with -idle, or the tick-kernel regression benchmark with -kernel.
//
//	nordbench -scale 0.2          # 20% of the default instruction quota
//	nordbench -idle               # Section 3.2 idle-period statistics
//	nordbench -kernel             # write BENCH_kernel.json, fail on alloc regressions
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
		scale        = flag.Float64("scale", 0.2, "instruction-count scale (1.0 = 60k instructions/core)")
		seed         = flag.Int64("seed", 1, "random seed")
		idle         = flag.Bool("idle", false, "only run the No_PG idle-period analysis (Figure 3 / Section 3.2)")
		quiet        = flag.Bool("quiet", false, "suppress progress output")
		csvPath      = flag.String("csv", "", "also write the raw per-cell results to a CSV file")
		kernel       = flag.Bool("kernel", false, "run the tick-kernel benchmark matrix (8x8 x designs x loads, plus the NoRD parallel-scaling meshes) and write a JSON report")
		kernelOut    = flag.String("kernel-out", "BENCH_kernel.json", "output path for the -kernel report")
		kernelCycles = flag.Int("kernel-cycles", 50_000, "measured cycles per -kernel point (scaling meshes run proportionally fewer)")
		cpus         = flag.Int("cpus", 0, "cap on the -kernel scaling matrix's shard counts (0 = full axis, 1 = serial only, negative = skip the scaling meshes)")
		baseline     = flag.String("baseline", "", "committed BENCH_kernel.json to compare the -kernel run against")
		tolerance    = flag.Float64("tolerance", 0.75, "fractional ns/cycle slowdown tolerated against -baseline (0.75 = +75%)")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a heap profile to this file on exit")
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

	if *kernel {
		// Load the baseline before the run: -kernel-out may point at the
		// same file, and CI does exactly that.
		var base *sim.KernelReport
		if *baseline != "" {
			f, err := os.Open(*baseline)
			if err != nil {
				fail(err)
			}
			base, err = sim.LoadKernelReport(f)
			f.Close()
			if err != nil {
				fail(err)
			}
		}
		progress := func(s string) {
			if !*quiet {
				fmt.Fprintf(os.Stderr, "kernel bench %s\n", s)
			}
		}
		rep, err := sim.KernelBenchP(*kernelCycles, *seed, *cpus, progress)
		if err != nil {
			fail(err)
		}
		f, err := os.Create(*kernelOut)
		if err != nil {
			fail(err)
		}
		if err := rep.WriteJSON(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("%-14s %8s %8s %4s %14s %14s %12s %8s\n",
			"design", "rate", "mesh", "P", "ns/cycle", "cycles/sec", "allocs/cyc", "speedup")
		for _, p := range rep.Points {
			w := p.Width
			if w == 0 {
				w = 8
			}
			par := p.Parallelism
			if par == 0 {
				par = 1
			}
			speedup := "-"
			if p.SpeedupVsSerial > 0 {
				speedup = fmt.Sprintf("%.2fx", p.SpeedupVsSerial)
			}
			fmt.Printf("%-14s %8.2f %7dx%-4d %2d %12.1f %14.0f %12.4f %8s\n",
				p.Design, p.Rate, w, w, par, p.NsPerCycle, p.CyclesPerSec, p.AllocsPerCycle, speedup)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *kernelOut)
		failed := false
		if bad := rep.Regressions(); len(bad) > 0 {
			failed = true
			for _, p := range bad {
				fmt.Fprintf(os.Stderr, "allocation regression: %s rate %.2f allocates %.4f/cycle (budget %.2f)\n",
					p.Design, p.Rate, p.AllocsPerCycle, p.Budget)
			}
		}
		if base != nil {
			bad, notices := rep.CompareBaseline(base, *tolerance)
			for _, msg := range notices {
				fmt.Fprintf(os.Stderr, "notice: %s\n", msg)
			}
			if len(bad) > 0 {
				failed = true
				for _, msg := range bad {
					fmt.Fprintf(os.Stderr, "baseline regression: %s\n", msg)
				}
			}
		}
		if failed {
			stopProfiles()
			os.Exit(1)
		}
		return
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
		for _, d := range sim.FullDesigns() {
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
