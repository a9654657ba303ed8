package noc

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"nord/internal/fault"
	"nord/internal/flit"
	"nord/internal/stats"
	"nord/internal/topology"
	"nord/internal/traffic"
)

// goldenRun drives one sweep point to completion and returns everything
// observable about it: the aggregate collector, the per-router reports and
// the in-flight count.
func goldenRun(t *testing.T, p Params, fullScan bool, rate float64, seed int64, warmup, measure int) (*stats.NoC, []RouterReport, int) {
	t.Helper()
	n := measuredRun(p, fullScan, rate, seed, warmup, measure)
	return n.Collector(), n.PerRouterReports(), n.InFlight()
}

// measuredRun drives one sweep point through warm-up and a finished
// measurement window and returns the network.
func measuredRun(p Params, fullScan bool, rate float64, seed int64, warmup, measure int) *Network {
	n, _, err := twinCell{p: p, rate: rate, seed: seed, warmup: warmup, measure: measure}.run(fullScan)
	if err != nil {
		panic(err)
	}
	return n
}

// fullScanStep is the reference twin of the event-sparse kernel: it puts
// every node on the worklist before the cycle, so each phase walks all N
// nodes, the original walk-everything loop. (The cycle's deactivation
// sweep takes a node off only as the cycle's last walk visits it.)
func fullScanStep(n *Network) error {
	for id := 0; id < n.nn; id++ {
		n.active.Add(id)
	}
	return n.Step()
}

// twinCell is one run that the event-sparse kernel and its full-scan twin
// are compared on. Traffic of the pattern (uniform when nil) on one class
// runs through warm-up and a finished measurement window; then, for up to
// drain cycles, injection stops while the source queues and the network
// drain. A non-nil schedule is armed before the first cycle, and
// onDeliver, when set, sees every delivery.
type twinCell struct {
	p                      Params
	sched                  *fault.Schedule
	pattern                traffic.Pattern
	class                  flit.Class
	rate                   float64
	seed                   int64
	warmup, measure, drain int
	onDeliver              func(*flit.Packet, uint64)
}

// run drives the cell on one kernel. It stops at the first structured
// error and returns it.
func (c twinCell) run(fullScan bool) (*Network, *traffic.Synthetic, error) {
	n := MustNew(c.p)
	if c.onDeliver != nil {
		n.SetDeliveryHandler(c.onDeliver)
	}
	if c.sched != nil {
		if err := n.AttachFaults(c.sched, FaultOptions{}); err != nil {
			panic(err)
		}
	}
	step := (*Network).Step
	if fullScan {
		step = fullScanStep
	}
	pattern := c.pattern
	if pattern == nil {
		pattern = traffic.UniformRandom
	}
	inj := traffic.NewSynthetic(n, pattern, c.rate, c.seed)
	inj.Class = c.class
	for i := 0; i < c.warmup+c.measure; i++ {
		if i == c.warmup {
			n.BeginMeasurement()
		}
		inj.Tick(n.Cycle())
		if err := step(n); err != nil {
			return n, inj, err
		}
	}
	n.FinishMeasurement()
	inj.Rate = 0
	for i := 0; i < c.drain && (inj.Pending() > 0 || !n.Quiescent()); i++ {
		inj.Tick(n.Cycle())
		if err := step(n); err != nil {
			return n, inj, err
		}
	}
	return n, inj, nil
}

// twinOut is everything the two kernels must agree on.
type twinOut struct {
	Collector *stats.NoC
	Routers   []RouterReport
	Faults    *fault.Report
	InFlight  int
	Err       error
}

func outputsOf(n *Network, err error) twinOut {
	return twinOut{n.Collector(), n.PerRouterReports(), n.FaultReport(), n.InFlight(), err}
}

// outputs runs the cell on one kernel and returns what it observed.
func (c twinCell) outputs(fullScan bool) twinOut {
	n, _, err := c.run(fullScan)
	return outputsOf(n, err)
}

// compareTwins reports every output on which the sparse run s and the
// full-scan run f differ.
func compareTwins(t *testing.T, s, f twinOut) {
	t.Helper()
	if !reflect.DeepEqual(s.Collector, f.Collector) {
		t.Errorf("collector statistics diverge:\nsparse: %+v\nfull:   %+v", s.Collector, f.Collector)
	}
	for i := range s.Routers {
		if !reflect.DeepEqual(s.Routers[i], f.Routers[i]) {
			t.Errorf("router %d report diverges:\nsparse: %+v\nfull:   %+v", i, s.Routers[i], f.Routers[i])
		}
	}
	if !reflect.DeepEqual(s.Faults, f.Faults) {
		t.Errorf("fault report diverges:\nsparse: %v\nfull:   %v", s.Faults, f.Faults)
	}
	if s.InFlight != f.InFlight {
		t.Errorf("in-flight count diverges: sparse %d, full %d", s.InFlight, f.InFlight)
	}
	if !reflect.DeepEqual(s.Err, f.Err) {
		t.Errorf("run error diverges:\nsparse: %v\nfull:   %v", s.Err, f.Err)
	}
}

// TestCollectorReadsIdempotent: reading the statistics changes none of
// them. A run whose collector and per-router reports are read mid-window,
// and which is finished twice, reports exactly what the same run read once
// at the end reports; and the mid-window read already counts every
// router-cycle so far as idle or busy.
func TestCollectorReadsIdempotent(t *testing.T) {
	for _, d := range Designs() {
		t.Run(d.String(), func(t *testing.T) {
			run := func(probe bool) (*stats.NoC, []RouterReport) {
				n := MustNew(DefaultParams(d))
				inj := traffic.NewSynthetic(n, traffic.UniformRandom, 0.05, 3)
				step := func(cycles int) {
					for c := 0; c < cycles; c++ {
						inj.Tick(n.Cycle())
						n.Tick()
					}
				}
				step(500)
				n.BeginMeasurement()
				step(1000)
				if probe {
					col := n.Collector()
					if got, want := col.IdleCycles+col.BusyCycles, col.Cycles*uint64(n.nn); col.IdleCycles == 0 || got != want {
						t.Errorf("mid-window read: %d idle + %d busy router-cycles, want %d in all (%d cycles x %d routers)",
							col.IdleCycles, col.BusyCycles, want, col.Cycles, n.nn)
					}
					n.PerRouterReports()
				}
				step(1000)
				n.FinishMeasurement()
				if probe {
					n.FinishMeasurement()
				}
				return n.Collector(), n.PerRouterReports()
			}
			col, reps := run(false)
			pCol, pReps := run(true)
			if col.IdlePeriods.Count() == 0 {
				t.Fatal("no idle periods measured; test is vacuous")
			}
			if !reflect.DeepEqual(col, pCol) {
				t.Errorf("collector read mid-window and finished twice diverges:\nonce:  %+v\nprobed: %+v", col, pCol)
			}
			if !reflect.DeepEqual(reps, pReps) {
				t.Errorf("per-router reports read mid-window and finished twice diverge:\nonce:  %+v\nprobed: %+v", reps, pReps)
			}
		})
	}
}

// TestEventSparseMatchesFullScan is the determinism golden test of the
// event-sparse kernel: every row run on the active-worklist kernel must
// match the same run on its full-scan twin (fullScanStep) bit for bit, on
// the collector, the per-router reports, the fault report, the in-flight
// count and the run's error. The named rows are mid-load 8x8 sweep points,
// one per design and NoRD option set. The faulted rows arm one schedule
// per topology x design x fault kind and drain after the window. Without
// nodeNeedsTick's wake-watchdog condition the cmesh Conv_PG_OPT stuck-off
// row and the mesh Conv_PG_OPT drop-wakeup row diverge: a router whose
// wake was refused left the worklist with its watchdog stamp set, and the
// next demand was timed from that stale stamp.
func TestEventSparseMatchesFullScan(t *testing.T) {
	type row struct {
		name string
		cell twinCell
	}
	var rows []row
	for _, tc := range []struct {
		name   string
		rate   float64
		mutate func(*Params)
	}{
		{"NoPG", 0.10, func(p *Params) { p.Design = NoPG }},
		{"ConvPG", 0.10, func(p *Params) { p.Design = ConvPG }},
		{"ConvPGOpt", 0.10, func(p *Params) { p.Design = ConvPGOpt }},
		{"NoRD", 0.10, func(p *Params) { p.Design = NoRD }},
		{"NoRD_aggressive_dynamic", 0.10, func(p *Params) {
			p.Design = NoRD
			p.AggressiveBypass = true
			p.DynamicClassify = true
		}},
		{"NoRD_forced_off", 0.05, func(p *Params) {
			p.Design = NoRD
			p.ForcedOff = true
		}},
	} {
		p := DefaultParams(NoPG)
		p.Width, p.Height = 8, 8
		tc.mutate(&p)
		rows = append(rows, row{tc.name, twinCell{p: p, rate: tc.rate, seed: 7, warmup: 1000, measure: 4000}})
	}

	kinds := []struct {
		name string
		cfg  fault.Config
	}{
		{"stuck-off", fault.Config{StuckOff: 2}},
		{"drop-wakeup", fault.Config{DropWakeups: 3}},
		{"hard-fail", fault.Config{HardFails: 2}},
		{"corrupt-link", fault.Config{CorruptLinks: 16}},
	}
	grids := []struct {
		kind topology.Kind
		side int
	}{{topology.KindMesh, 6}, {topology.KindTorus, 6}, {topology.KindCMesh, 4}}
	for _, g := range grids {
		for _, d := range Designs() {
			p := DefaultParams(d)
			p.Topology = g.kind
			p.Width, p.Height = g.side, g.side
			p.VCsPerClass = max(p.VCsPerClass, MinVCs(d, g.kind))
			// A partition after hard fails surfaces as a DeadlockError,
			// one of the compared outputs.
			p.WatchdogLimit = 2_000
			for _, k := range kinds {
				cfg := k.cfg
				cfg.Seed, cfg.Horizon = 21, 3000
				sched, err := fault.Generate(cfg, p.NumNodes())
				if err != nil {
					t.Fatal(err)
				}
				rows = append(rows, row{fmt.Sprintf("faulted/%v/%v/%s", g.kind, d, k.name),
					twinCell{p: p, sched: sched, rate: 0.02, seed: 3, warmup: 600, measure: 3000, drain: 20_000}})
			}
		}
	}

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			s, f := r.cell.outputs(false), r.cell.outputs(true)
			if s.Collector.PacketsDelivered == 0 {
				t.Fatal("row delivered no packets; test is vacuous")
			}
			compareTwins(t, s, f)
		})
	}
}

// TestSparseDormancy sanity-checks that the worklist actually shrinks: an
// idle gated network must end up with no active nodes, otherwise the
// kernel is correct but pointless. A network with a fault schedule armed
// runs the same kernel, so once its faulted traffic has drained, it goes
// dormant too.
func TestSparseDormancy(t *testing.T) {
	t.Run("idle", func(t *testing.T) {
		p := DefaultParams(NoRD)
		p.Width, p.Height = 8, 8
		n := MustNew(p)
		n.Run(2000) // no traffic: everything gates off and goes dormant
		if !n.active.Empty() {
			t.Errorf("idle NoRD network keeps node %d active, want none", n.active.Next(0))
		}
		for id := 0; id < p.NumNodes(); id++ {
			if n.RouterPowerOn(id) {
				t.Fatalf("router %d still on in an idle gated network", id)
			}
		}
	})
	for _, d := range Designs() {
		t.Run("faulted/"+d.String(), func(t *testing.T) {
			p := DefaultParams(d)
			sched, err := fault.Generate(fault.Config{Seed: 5, Horizon: 2000, StuckOff: 2, DropWakeups: 2, CorruptLinks: 8}, p.NumNodes())
			if err != nil {
				t.Fatal(err)
			}
			n, _, err := twinCell{p: p, sched: sched, rate: 0.05, seed: 5, measure: 2000, drain: 50_000}.run(false)
			if err != nil || !n.Quiescent() {
				t.Fatalf("faulted run did not drain (err %v, %d in flight)", err, n.InFlight())
			}
			n.Run(2000)
			if !n.active.Empty() {
				t.Errorf("drained faulted %v network keeps node %d of %d active, want none", d, n.active.Next(0), p.NumNodes())
			}
		})
	}
}

// TestActiveSetComposition measures what the event-sparse worklist is made
// of at low load, which decides how much any further sparsity trick can
// save: a node on the list is either doing work (router datapath, links
// or the NI side holding flits) or only waiting (a powered-on router
// counting down the gate-off hysteresis, or an NI whose demand window has
// not drained). Only the waiting share is removable. `go test -v -run
// TestActiveSetComposition ./internal/noc` prints the breakdown quoted in
// DESIGN.md §7.
func TestActiveSetComposition(t *testing.T) {
	type breakdown struct{ active, routerBusy, niBusy, idleOn, idleWindow float64 }
	measure := func(d Design) (breakdown, float64) {
		p := DefaultParams(d)
		p.Width, p.Height = 8, 8
		if d == NoRD {
			// As the simulator configures it: the planner's 24 routers.
			topo := topology.MustNew(p.Topology, p.Width, p.Height)
			ring, err := topology.NewRing(topo)
			if err != nil {
				t.Fatal(err)
			}
			if p.PerfCentric, err = topology.NewPlanner(topo, ring).PerformanceCentric(24); err != nil {
				t.Fatal(err)
			}
		}
		n := MustNew(p)
		inj := traffic.NewSynthetic(n, traffic.UniformRandom, 0.02, 1)
		const warmup, cycles = 5000, 10000
		var b breakdown
		for c := 0; c < warmup+cycles; c++ {
			inj.Tick(n.Cycle())
			n.Tick()
			if c == warmup {
				n.BeginMeasurement()
			}
			if c < warmup {
				continue
			}
			// The list as the next cycle will find it, classified in
			// nodeNeedsTick's order of reasons.
			for id := n.active.Next(0); id >= 0; id = n.active.Next(id + 1) {
				r, ni := n.routers[id], n.nis[id]
				b.active++
				switch {
				case r.bufFlits > 0 || r.stFlits > 0 || r.phaseCnt[vcRouting] > 0 || r.phaseCnt[vcWaitVA] > 0 ||
					r.phaseCnt[vcActive] > 0 || r.phaseCnt[vcWaitWake] > 0 ||
					r.saGrantsLastCycle > 0 || r.saGrantsThisCycle > 0 || r.state == powerWaking ||
					n.linkCount[id] > 0 || r.heldVCs > 0 || r.bypassSum > 0:
					b.routerBusy++
				case ni.curMode != modeNone || len(ni.curFlits) > 0 || ni.injectOut != nil ||
					len(ni.ejPend) > 0 || len(ni.toLocal) > 0 || len(ni.localQ) > 0 ||
					ni.queuedTotal > 0 || ni.latchCount > 0 || ni.fwdCount > 0:
					b.niBusy++
				case r.state == powerOn:
					b.idleOn++
				default:
					b.idleWindow++
				}
			}
		}
		n.FinishMeasurement()
		for _, f := range []*float64{&b.active, &b.routerBusy, &b.niBusy, &b.idleOn, &b.idleWindow} {
			*f /= cycles
		}
		return b, n.Collector().AvgPacketLatency()
	}
	for _, d := range []Design{NoRD, NoPG} {
		b, latency := measure(d)
		t.Logf("%-6s 8x8 @0.02: active %.1f of 64 per cycle = router-busy %.1f + NI-busy %.1f + idle-on %.1f + idle-window %.1f; avg latency %.0f cycles",
			d, b.active, b.routerBusy, b.niBusy, b.idleOn, b.idleWindow, latency)
		if sum := b.routerBusy + b.niBusy + b.idleOn + b.idleWindow; math.Abs(sum-b.active) > 1e-6 {
			t.Errorf("%s: classes sum to %.3f, active set is %.3f", d, sum, b.active)
		}
		// The finding the docs rest on: NoRD's list is long because its
		// nodes are moving flits (longer routes, ~3x the flit-hops), not
		// because the ring keeps idle NIs awake.
		if waiting := b.idleOn + b.idleWindow; d == NoRD && waiting > 0.3*b.active {
			t.Errorf("NoRD: %.1f of %.1f active nodes are only waiting; DESIGN.md §7 says under a third", waiting, b.active)
		}
	}
}
