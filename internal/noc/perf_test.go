package noc

import (
	"fmt"
	"runtime"
	"testing"
	"time"

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

// BenchmarkKernelParallel is the sharded-kernel scaling matrix: NoRD on
// 16x16/32x32/64x64 meshes at P in {1,2,4,8} — the points of DESIGN.md
// §11's table, and the instrument for ROADMAP item 1's outstanding
// >=4-CPU measurement. Loads drop with mesh size to stay below the
// uniform-random saturation bound (~1/width); P=1 is the same code path
// run single-shard — the speedup denominator.
func BenchmarkKernelParallel(b *testing.B) {
	for _, m := range []struct {
		w    int
		rate float64
	}{{16, 0.10}, {32, 0.05}, {64, 0.02}} {
		for _, cpus := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("NoRD/%dx%d/P%d", m.w, m.w, cpus), func(b *testing.B) {
				p := DefaultParams(NoRD)
				p.Width, p.Height = m.w, m.w
				p.Parallelism = cpus
				n := MustNew(p)
				defer n.Close()
				inj := traffic.NewSynthetic(n, traffic.UniformRandom, m.rate, 1)
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

// TestSteadyStateZeroAllocs proves the tick hot path is allocation-free
// in steady state for all four designs and all three topologies: after
// warmup, whole simulated cycles (traffic generation included) must not
// allocate. The topology interface calls, the torus dateline escape-VC
// computation, and the concentrated local-port crossbar slots are all on
// the hot path and must not escape to the heap.
func TestSteadyStateZeroAllocs(t *testing.T) {
	for _, topo := range []topology.Kind{topology.KindMesh, topology.KindTorus, topology.KindCMesh} {
		for _, d := range []Design{NoPG, ConvPG, ConvPGOpt, NoRD} {
			t.Run(fmt.Sprintf("%s/%s", d, topo), func(t *testing.T) {
				p := DefaultParams(d)
				p.Width, p.Height = 8, 8
				p.Topology = topo
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
					t.Errorf("%s/%s: steady-state tick allocates %.4f allocs/op, want 0", d, topo, avg)
				}
			})
		}
	}
}

// TestNewBytesPerNode bounds what building a network allocates. Sweeps,
// the service and the search build thousands of short-lived networks, so
// construction cost is garbage-collector load; in particular nothing
// per-router may own a MaxIdlePeriod-bucket histogram (32 KB each — they
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
