// Command nordtrace records and replays network traffic traces, the
// standard trace-driven methodology for comparing designs on identical
// traffic:
//
//	nordtrace -record -benchmark x264 -scale 0.2 -o x264.trace.gz
//	nordtrace -replay x264.trace.gz                 # all four designs
//	nordtrace -replay x264.trace.gz -design nord    # one design, full report
package main

import (
	"flag"
	"fmt"
	"os"

	"nord/internal/noc"
	"nord/internal/sim"
	"nord/internal/trace"
)

func main() {
	var (
		record    = flag.Bool("record", false, "record a workload trace")
		benchmark = flag.String("benchmark", "x264", "workload to record")
		scale     = flag.Float64("scale", 0.2, "instruction-count scale for recording")
		out       = flag.String("o", "out.trace.gz", "output trace file")
		replay    = flag.String("replay", "", "trace file to replay")
		design    = flag.String("design", "", "replay on a single design (default: compare all four)")
		warmup    = flag.Int("warmup", 0, "replay warmup cycles excluded from measurement")
		seed      = flag.Int64("seed", 1, "random seed of the -record workload (a replay draws no random number)")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	switch {
	case *record:
		tr, res, err := sim.RecordWorkloadTrace(sim.WorkloadConfig{
			Design: noc.NoPG, Benchmark: *benchmark, Scale: *scale, Seed: *seed,
		})
		if err != nil {
			fail(err)
		}
		if err := tr.Save(*out); err != nil {
			fail(err)
		}
		fmt.Printf("recorded %d packets over %d cycles from %s (No_PG) into %s\n",
			len(tr.Events), res.ExecTime, *benchmark, *out)

	case *replay != "":
		tr, err := trace.Load(*replay)
		if err != nil {
			fail(err)
		}
		designs := noc.Designs()
		if *design != "" {
			d, err := noc.DesignByName(*design)
			if err != nil {
				fail(err)
			}
			designs = []noc.Design{d}
		}
		fmt.Printf("replaying %d packets (%d nodes) from %s\n\n", len(tr.Events), tr.Nodes, *replay)
		// A structured runtime failure (deadlock, replay timeout) still
		// carries partial statistics in the Result; print what was
		// measured, then exit non-zero so scripts notice the failure.
		failed := false
		if len(designs) == 1 {
			res, err := sim.ReplayTrace(sim.TraceConfig{Design: designs[0], Path: *replay, Warmup: *warmup}, tr)
			if err != nil && res.Err == "" {
				fail(err)
			}
			fmt.Print(sim.FormatResult(res))
			if res.Err != "" {
				fmt.Fprintf(os.Stderr, "replay failed: %s\n", res.Err)
				os.Exit(2)
			}
			return
		}
		fmt.Printf("%-14s %10s %10s %12s %10s %10s\n", "design", "latency", "wakeups", "static(uJ)", "off%", "power(W)")
		for _, d := range designs {
			res, err := sim.ReplayTrace(sim.TraceConfig{Design: d, Path: *replay, Warmup: *warmup}, tr)
			if err != nil && res.Err == "" {
				fail(err)
			}
			if res.Err != "" {
				failed = true
				fmt.Printf("%-14s %10s  %s\n", d, "FAILED", res.Err)
				continue
			}
			fmt.Printf("%-14s %10.1f %10d %12.3f %9.0f%% %10.2f\n",
				d, res.AvgPacketLatency, res.Wakeups, res.Energy.RouterStatic*1e6, 100*res.OffFraction, res.AvgPowerW)
		}
		if failed {
			os.Exit(2)
		}

	default:
		flag.Usage()
	}
}
