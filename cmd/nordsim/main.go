// Command nordsim runs a single NoC simulation — synthetic traffic or a
// PARSEC-like full-system workload — under one of the four power-gating
// designs and prints the measurements and energy accounting.
//
// Examples:
//
//	nordsim -design nord -rate 0.05                 # uniform random, 4x4
//	nordsim -design conv_pg_opt -benchmark x264     # full-system run
//	nordsim -print-config                           # Table 1 parameters
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"nord/internal/noc"
	"nord/internal/obs"
	"nord/internal/profiling"
	"nord/internal/sim"
)

// writeTrace dumps a finished run's tracer: Chrome trace-event JSON
// (open in ui.perfetto.dev) by default, NDJSON when the path ends in
// .ndjson, with one summary line per router carrying its RouterReport.
func writeTrace(path string, tr *obs.Tracer, res sim.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".ndjson") {
		sums := make([]any, len(res.Routers))
		for i, rr := range res.Routers {
			sums[i] = rr
		}
		err = tr.WriteNDJSON(f, sums...)
	} else {
		err = tr.WriteChromeTrace(f, res.Cycles)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syntheticOnly names the flags a -benchmark run does not read: the
// workload fixes its own 4x4 mesh, traffic and run length.
var syntheticOnly = []string{"width", "height", "pattern", "rate", "measure",
	"forced-off", "two-stage", "aggressive-bypass", "dynamic-classify"}

func main() {
	def := noc.DefaultParams(noc.NoRD)
	var (
		design      = flag.String("design", "nord", "no_pg, conv_pg, conv_pg_opt or nord")
		pattern     = flag.String("pattern", "uniform", "synthetic pattern: uniform, bitcomp, transpose, tornado")
		rate        = flag.Float64("rate", 0.05, "synthetic injection rate (flits/node/cycle)")
		benchmark   = flag.String("benchmark", "", "run a PARSEC-like workload instead of synthetic traffic")
		scale       = flag.Float64("scale", 1.0, "workload instruction-count scale")
		topo        = flag.String("topology", "mesh", "interconnect: mesh, torus or cmesh (4 terminals/router)")
		width       = flag.Int("width", def.Width, "router-grid width")
		height      = flag.Int("height", def.Height, "router-grid height")
		warmup      = flag.Int("warmup", 10_000, "warmup cycles")
		measure     = flag.Int("measure", 100_000, "measured cycles (synthetic)")
		wakeup      = flag.Int("wakeup", def.WakeupLatency, "router wakeup latency in cycles")
		seed        = flag.Int64("seed", 1, "random seed")
		forcedOff   = flag.Bool("forced-off", false, "force every router asleep (Figure 7 mode)")
		twoStage    = flag.Bool("two-stage", false, "2-stage router pipeline (Section 6.8)")
		aggressive  = flag.Bool("aggressive-bypass", false, "1-cycle NoRD bypass (Section 6.8)")
		dynClass    = flag.Bool("dynamic-classify", false, "demand-ranked performance-centric class (Section 4.4)")
		csvOut      = flag.Bool("csv", false, "emit a CSV record instead of the report")
		tracePath   = flag.String("trace", "", "write a cycle-level event trace to this file (Chrome trace-event JSON for Perfetto; NDJSON when the path ends in .ndjson)")
		traceSample = flag.Int("trace-sample", 0, "record every Nth bypass hop in the trace (0 = the default 64)")
		perRouter   = flag.Bool("per-router", false, "append the per-router spatial statistics table (with -csv: write the per-router CSV instead of the result record)")
		powerTrace  = flag.Int("power-trace", 0, "emit a power time series sampled every N cycles (CSV) instead of the report")
		watch       = flag.Int("watch", 0, "render router power-state frames every N cycles instead of the report")
		printConfig = flag.Bool("print-config", false, "print the Table 1 default configuration and exit")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile to this file on exit")
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

	if *printConfig {
		fmt.Println("Table 1 configuration (defaults):")
		fmt.Printf("  network topology   %dx%d mesh (also 8x8 via -width/-height)\n", def.Width, def.Height)
		fmt.Printf("  router             4-stage (RC,VA,SA,ST) + LT, 3GHz\n")
		fmt.Printf("  virtual channels   %d per protocol class\n", def.VCsPerClass)
		fmt.Printf("  input buffers      %d-flit depth\n", def.BufferDepth)
		fmt.Printf("  link bandwidth     128 bits/cycle (1 flit)\n")
		fmt.Printf("  wakeup latency     %d cycles (4ns at 3GHz)\n", def.WakeupLatency)
		fmt.Printf("  early wakeup       %d cycles hidden (Conv_PG_OPT)\n", noc.EarlyWakeupCycles)
		fmt.Printf("  wakeup window      %d cycles, thresholds perf=%d power=%d\n", noc.WakeupWindow, def.ThresholdPerf, def.ThresholdPower)
		fmt.Printf("  misroute cap       %d hops before the escape ring\n", def.MisrouteCap)
		fmt.Printf("  memory (workload)  L1 32KB/2-way 1cy; L2 256KB/16-way banks 6cy; MOESI-style MSI directory; 4 corner memory controllers, 128cy\n")
		return
	}

	d, err := noc.DesignByName(*design)
	if err != nil {
		fail(err)
	}
	if *measure <= 0 {
		fail(fmt.Errorf("measure must be positive, got %d", *measure))
	}
	// These flags default to the Table 1 values, so a 0 is always
	// explicit, and sim would read it as that default.
	for _, f := range []struct {
		name string
		v    int
	}{{"wakeup", *wakeup}, {"width", *width}, {"height", *height}} {
		if f.v == 0 {
			fail(fmt.Errorf("-%s 0 cannot run: sim reads a zero as the Table 1 default", f.name))
		}
	}
	// The flag default is the paper's warmup, so a 0 on the command line
	// is always an explicit request for no warmup.
	if *warmup == 0 {
		*warmup = sim.ZeroWarmup
	}
	var opt sim.RunOptions
	if *tracePath != "" {
		opt.Tracer = obs.New(obs.Config{SampleEvery: *traceSample})
	}
	synth := sim.SynthConfig{
		Design: d, Width: *width, Height: *height, Topology: *topo,
		Pattern: *pattern, Rate: *rate,
		Warmup: *warmup, Measure: *measure,
		Seed: *seed, WakeupLatency: *wakeup, ForcedOff: *forcedOff,
		TwoStageRouter: *twoStage, AggressiveBypass: *aggressive,
		DynamicClassify: *dynClass,
	}
	ctx := context.Background()
	sampling := *watch > 0 || *powerTrace > 0
	var res sim.Result
	switch {
	case sampling:
		// The samplers are synthetic runs with a reader attached: they
		// honour -trace like the plain run, and print their frames
		// or series instead of the report.
		if *benchmark != "" {
			fail(fmt.Errorf("-watch and -power-trace sample synthetic traffic; drop -benchmark"))
		}
		if *watch > 0 {
			res, err = sim.WatchStates(ctx, synth, opt, *watch, max(1, *measure / *watch), os.Stdout)
		} else {
			var samples []sim.PowerSample
			if samples, res, err = sim.PowerTimeSeries(ctx, synth, opt, *powerTrace); err == nil {
				err = sim.WritePowerSeriesCSV(os.Stdout, samples)
			}
		}
	case *benchmark != "":
		// Refuse rather than silently running the workload on a 4x4 mesh
		// under its own traffic.
		if *topo != "" && *topo != "mesh" {
			fail(fmt.Errorf("full-system workloads support only the mesh topology, got %q", *topo))
		}
		flag.Visit(func(f *flag.Flag) {
			if slices.Contains(syntheticOnly, f.Name) {
				fail(fmt.Errorf("full-system workloads support only their own network and traffic, got -%s", f.Name))
			}
		})
		res, err = sim.RunWorkloadOpts(ctx, sim.WorkloadConfig{
			Design: d, Benchmark: *benchmark, Scale: *scale,
			Warmup: *warmup, Seed: *seed, WakeupLatency: *wakeup,
		}, opt)
	default:
		res, err = sim.RunSyntheticOpts(ctx, synth, opt)
	}
	if err != nil {
		fail(err)
	}
	if opt.Tracer != nil {
		if err := writeTrace(*tracePath, opt.Tracer, res); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events (%d dropped) -> %s\n",
			opt.Tracer.Total(), opt.Tracer.Dropped(), *tracePath)
	}
	if sampling {
		return
	}
	switch {
	case *csvOut && *perRouter:
		if err := sim.WriteRouterCSV(os.Stdout, res); err != nil {
			fail(err)
		}
		return
	case *csvOut:
		w := csv.NewWriter(os.Stdout)
		if err := w.Write(sim.ResultCSVHeader()); err == nil {
			_ = w.Write(sim.ResultCSVRecord(res))
		}
		w.Flush()
		return
	}
	fmt.Print(sim.FormatResult(res))
	if *perRouter {
		fmt.Println()
		fmt.Print(sim.FormatPerRouter(res))
	}
}
