package noc

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"nord/internal/stats"
	"nord/internal/topology"
	"nord/internal/traffic"
)

func benchNet(b *testing.B, d Design, w, h int, rate float64) {
	p := DefaultParams(d)
	p.Width, p.Height = w, h
	n := MustNew(p)
	inj := traffic.NewSynthetic(n, traffic.UniformRandom, rate, 1)
	n.BeginMeasurement()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj.Tick(n.Cycle())
		n.Tick()
	}
}

func BenchmarkTick16NoPG(b *testing.B) { benchNet(b, NoPG, 4, 4, 0.05) }
func BenchmarkTick16NoRD(b *testing.B) { benchNet(b, NoRD, 4, 4, 0.05) }
func BenchmarkTick64NoRD(b *testing.B) { benchNet(b, NoRD, 8, 8, 0.05) }
func BenchmarkTick64NoPG(b *testing.B) { benchNet(b, NoPG, 8, 8, 0.05) }

// kernelRates is the standard load matrix of the benchmark-regression
// harness: low (most routers dormant), mid, and saturation load in
// flits/node/cycle on an 8x8 mesh.
var kernelRates = []float64{0.02, 0.10, 0.30}

// BenchmarkKernel is the regression matrix consumed by CI and by
// `nordbench -kernel`: 8x8 mesh x 4 designs x 3 loads, reporting
// simulated cycles/sec on top of the usual ns/op and allocs/op.
func BenchmarkKernel(b *testing.B) {
	for _, d := range []Design{NoPG, ConvPG, ConvPGOpt, NoRD} {
		for _, rate := range kernelRates {
			b.Run(fmt.Sprintf("%s/rate%.2f", d, rate), func(b *testing.B) {
				p := DefaultParams(d)
				p.Width, p.Height = 8, 8
				n := MustNew(p)
				inj := traffic.NewSynthetic(n, traffic.UniformRandom, rate, 1)
				// Warm up: fills the pools, settles gating, reaches the
				// steady state the harness is meant to measure.
				for c := 0; c < 2000; c++ {
					inj.Tick(n.Cycle())
					n.Tick()
				}
				b.ReportAllocs()
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					inj.Tick(n.Cycle())
					n.Tick()
				}
				if el := time.Since(start).Seconds(); el > 0 {
					b.ReportMetric(float64(b.N)/el, "cycles/sec")
				}
			})
		}
	}
}

// The laps BenchmarkStepPhases times: Network.Step's script, with the
// router section timed whole on even cycles and as three passes on odd
// ones.
const (
	phFaults = iota
	phLinks
	phNode   // NI wire deliveries, router ST, NI pipelines
	phRouter // SA, VA, RC fused, as Step runs them (even cycles)
	phSA     // the three as separate passes (odd cycles)
	phVA
	phRC
	phPG // power-gating controllers, idle samples, deactivation, reclassification
	phCredits
	phStats // cycle count, statistics epoch, residency row
	phWatchdog
	numStepPhases
)

var stepPhaseNames = [numStepPhases]string{
	"faults", "links", "node", "router", "sa", "va", "rc", "pg", "credits", "stats", "watchdog",
}

// stepPhases is Network.Step with the clock read between the phases:
// ns[ph] grows by the time phase ph took. On odd cycles the router phase
// runs as an SA walk, a VA walk and an RC walk of the worklist where Step
// makes one fused walk; the stages touch only their own router and the
// nodes they wake are dormant either way, so the result is the same
// (TestStepPhasesMatchStep). Visiting every router three times costs
// about 5 % of a cycle, which is why the even cycles time the phase the
// way Step runs it: that is the router phase's cost, and the passes give
// the shares to split it by.
func stepPhases(n *Network, ns *[numStepPhases]int64, epoch time.Time) error {
	if n.err != nil {
		return n.err
	}
	last := time.Since(epoch)
	lap := func(ph int) {
		now := time.Since(epoch)
		ns[ph] += int64(now - last)
		last = now
	}
	n.cycle++
	n.stepFaults()
	lap(phFaults)
	n.stepLinks()
	lap(phLinks)
	n.stepNode()
	lap(phNode)
	if n.cycle&1 == 0 {
		n.stepRouter()
		lap(phRouter)
	} else {
		for id := n.active.Next(0); id >= 0; id = n.active.Next(id + 1) {
			n.routers[id].tickSA()
		}
		lap(phSA)
		for id := n.active.Next(0); id >= 0; id = n.active.Next(id + 1) {
			n.routers[id].tickVA()
		}
		lap(phVA)
		for id := n.active.Next(0); id >= 0; id = n.active.Next(id + 1) {
			n.routers[id].tickRC()
		}
		lap(phRC)
	}
	n.stepControllers()
	lap(phPG)
	n.stepCredits()
	lap(phCredits)
	n.stepStats()
	lap(phStats)
	n.stepWatchdog()
	lap(phWatchdog)
	return n.err
}

// stepPhaseCells are the ladder's kernel cells the attribution is kept
// for (bench/kernel.go: 8x8 mesh, uniform random, the planner's set).
type stepPhaseCell struct {
	name   string
	design Design
	rate   float64
}

var stepPhaseCells = []stepPhaseCell{
	{"nord_r02", NoRD, 0.02},
	{"no_pg_r10", NoPG, 0.10},
	{"no_pg_r25", NoPG, 0.25},
}

func (c stepPhaseCell) build() (*Network, *traffic.Synthetic) {
	p := DefaultParams(c.design)
	p.Width, p.Height = 8, 8
	if c.design == NoRD {
		p.PerfCentric, _ = topology.StandardPlan(p.Topology, p.Width, p.Height)
	}
	n := MustNew(p)
	return n, traffic.NewSynthetic(n, traffic.UniformRandom, c.rate, 1)
}

// BenchmarkStepPhases splits a simulated cycle by Step phase: per cell it
// times plain Step (step-ns/cycle), then the same run through stepPhases,
// and reports one <phase>-ns/cycle each plus their sum, phases-ns/cycle,
// which should land within a few percent of step-ns/cycle (the clock
// reads, ≈ 0.3 µs a cycle, are measured and taken off). sa, va and rc are
// not in the sum: they are router, the fused section's time, in the
// proportion the three-pass cycles found. It is the attribution a kernel
// change starts from:
//
//	go test ./internal/noc -run '^$' -bench BenchmarkStepPhases -benchtime 20000x
func BenchmarkStepPhases(b *testing.B) {
	// warm leaves the network measuring, as the ladder's kernel cells run
	// nearly all their cycles: the stats phase then pays the measured
	// window's accounting.
	warm := func(c stepPhaseCell) (*Network, *traffic.Synthetic) {
		n, inj := c.build()
		for i := 0; i < 2000; i++ {
			inj.Tick(n.Cycle())
			n.Tick()
		}
		n.BeginMeasurement()
		return n, inj
	}
	// clock is what one clock read costs, in ns.
	const reads = 1 << 16
	epoch := time.Now()
	for i := 0; i < reads; i++ {
		_ = time.Since(epoch)
	}
	clock := int64(time.Since(epoch)) / reads

	for _, c := range stepPhaseCells {
		b.Run(c.name, func(b *testing.B) {
			n, inj := warm(c)
			var whole int64
			for i := 0; i < b.N; i++ {
				inj.Tick(n.Cycle())
				start := time.Since(epoch)
				n.Tick()
				whole += int64(time.Since(epoch)-start) - clock
			}

			n, inj = warm(c)
			var ns [numStepPhases]int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inj.Tick(n.Cycle())
				if err := stepPhases(n, &ns, epoch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// Every lap carries one clock read, taken off here (faults and
			// watchdog would otherwise read ≈ 35 ns, all of it the clock).
			// Warm-up is even, so cycles 2, 4, ... are the fused ones.
			fused, split := b.N/2, b.N-b.N/2
			perCycle := func(ph, laps int) float64 {
				return float64(max(ns[ph]-int64(laps)*clock, 0)) / float64(max(laps, 1))
			}
			router := perCycle(phRouter, fused)
			passes := perCycle(phSA, split) + perCycle(phVA, split) + perCycle(phRC, split)
			report := func(name string, v float64) { b.ReportMetric(v, name+"-ns/cycle") }
			sum := 0.0
			for ph, name := range stepPhaseNames {
				switch ph {
				case phSA, phVA, phRC:
					report(name, router*perCycle(ph, split)/passes)
				case phRouter:
					report(name, router)
					sum += router
				default:
					report(name, perCycle(ph, b.N))
					sum += perCycle(ph, b.N)
				}
			}
			report("phases", sum)
			report("step", float64(whole)/float64(b.N))
		})
	}
}

// TestStepPhasesMatchStep: the script BenchmarkStepPhases times is Step's
// — a phase added to one and not the other, or a router stage that starts
// reading a neighbour, shows as diverging statistics.
func TestStepPhasesMatchStep(t *testing.T) {
	cells := append(stepPhaseCells[:2:2], stepPhaseCell{"conv_pg_r05", ConvPG, 0.05})
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			run := func(step func(*Network) error) (*stats.NoC, []RouterReport, int) {
				n, inj := c.build()
				for i := 0; i < 4001; i++ {
					if i == 1000 {
						n.BeginMeasurement()
					}
					inj.Tick(n.Cycle())
					if err := step(n); err != nil {
						t.Fatal(err)
					}
				}
				n.FinishMeasurement()
				return n.Collector(), n.PerRouterReports(), n.InFlight()
			}
			var ns [numStepPhases]int64
			epoch := time.Now()
			wCol, wPer, wIn := run((*Network).Step)
			pCol, pPer, pIn := run(func(n *Network) error { return stepPhases(n, &ns, epoch) })
			if wCol.PacketsDelivered == 0 {
				t.Fatal("no packets delivered; test is vacuous")
			}
			if !reflect.DeepEqual(wCol, pCol) || !reflect.DeepEqual(wPer, pPer) || wIn != pIn {
				t.Errorf("phased stepping diverges from Step:\nStep:   %+v\nphased: %+v", wCol, pCol)
			}
		})
	}
}

// TestSteadyStateZeroAllocs proves the tick hot path is allocation-free
// in steady state for all four designs and all three topologies: after
// warmup, whole simulated cycles (traffic generation included) must not
// allocate. The topology interface calls, the torus dateline escape-VC
// computation, and the concentrated local-port crossbar slots are all on
// the hot path and must not escape to the heap. The dynamic cell also
// measures the ranking itself: it runs once per ReclassifyPeriod cycles,
// so its allocations would round away in a per-cycle average.
func TestSteadyStateZeroAllocs(t *testing.T) {
	check := func(t *testing.T, p Params) *Network {
		p.Width, p.Height = 8, 8
		n := MustNew(p)
		inj := traffic.NewSynthetic(n, traffic.UniformRandom, 0.02, 11)
		for c := 0; c < 5000; c++ {
			inj.Tick(n.Cycle())
			n.Tick()
		}
		avg := testing.AllocsPerRun(300, func() {
			inj.Tick(n.Cycle())
			n.Tick()
		})
		if avg != 0 {
			t.Errorf("steady-state tick allocates %.4f allocs/op, want 0", avg)
		}
		return n
	}
	for _, topo := range []topology.Kind{topology.KindMesh, topology.KindTorus, topology.KindCMesh} {
		for _, d := range []Design{NoPG, ConvPG, ConvPGOpt, NoRD} {
			t.Run(fmt.Sprintf("%s/%s", d, topo), func(t *testing.T) {
				p := DefaultParams(d)
				p.Topology = topo
				check(t, p)
			})
		}
	}
	t.Run("NoRD/mesh/dynamic", func(t *testing.T) {
		p := DefaultParams(NoRD)
		p.DynamicClassify = true
		n := check(t, p)
		if avg := testing.AllocsPerRun(100, n.reclassify); avg != 0 {
			t.Errorf("reclassify allocates %.4f allocs/op, want 0", avg)
		}
	})
}

// TestNewBytesPerNode bounds what building a network allocates. Sweeps,
// the service and the search build thousands of short-lived networks, so
// construction cost is garbage-collector load; in particular nothing
// per-router may own a maxIdlePeriod-bucket histogram (32 KB each — they
// once made up two thirds of a 4x4 network).
func TestNewBytesPerNode(t *testing.T) {
	const fixed, perNode = 160 << 10, 8 << 10
	for _, w := range []int{4, 8, 16} {
		for _, d := range []Design{NoPG, NoRD} {
			p := DefaultParams(d)
			p.Width, p.Height = w, w
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			n := MustNew(p)
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(n)
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("%s %dx%d: %d KB, %.1f KB/node", d, w, w, got>>10, float64(got)/float64(w*w)/1024)
			if limit := uint64(fixed + perNode*w*w); got > limit {
				t.Errorf("%s %dx%d: New allocated %d bytes, want at most %d (%d + %d per node)",
					d, w, w, got, limit, fixed, perNode)
			}
		}
	}
}
