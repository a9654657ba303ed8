package noc

import (
	"math"
	"reflect"
	"testing"

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
	n := MustNew(p)
	if fullScan {
		n.fullScan()
	}
	inj := traffic.NewSynthetic(n, traffic.UniformRandom, rate, seed)
	for c := 0; c < warmup; c++ {
		inj.Tick(n.Cycle())
		n.Tick()
	}
	n.BeginMeasurement()
	for c := 0; c < measure; c++ {
		inj.Tick(n.Cycle())
		n.Tick()
	}
	n.FinishMeasurement()
	return n
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
// event-sparse kernel: for every design, a mid-load sweep point run with
// the active-worklist kernel must produce statistics bit-identical to the
// same run with the full-scan kernel (Network.fullScan).
func TestEventSparseMatchesFullScan(t *testing.T) {
	cases := []struct {
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
			p.ReclassifyPeriod = 512
		}},
		{"NoRD_forced_off", 0.05, func(p *Params) {
			p.Design = NoRD
			p.ForcedOff = true
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams(NoPG)
			p.Width, p.Height = 8, 8
			tc.mutate(&p)

			sCol, sPer, sInFlight := goldenRun(t, p, false, tc.rate, 7, 1000, 4000)
			fCol, fPer, fInFlight := goldenRun(t, p, true, tc.rate, 7, 1000, 4000)

			if sCol.PacketsDelivered == 0 {
				t.Fatal("sweep point delivered no packets; test is vacuous")
			}
			if !reflect.DeepEqual(sCol, fCol) {
				t.Errorf("collector statistics diverge:\nsparse: %+v\nfull:   %+v", sCol, fCol)
			}
			if !reflect.DeepEqual(sPer, fPer) {
				for i := range sPer {
					if !reflect.DeepEqual(sPer[i], fPer[i]) {
						t.Errorf("router %d report diverges:\nsparse: %+v\nfull:   %+v", i, sPer[i], fPer[i])
					}
				}
			}
			if sInFlight != fInFlight {
				t.Errorf("in-flight count diverges: sparse %d, full %d", sInFlight, fInFlight)
			}
		})
	}
}

// TestSparseDormancy sanity-checks that the worklist actually shrinks: an
// idle gated network must end up with (almost) no active nodes, otherwise
// the kernel is correct but pointless.
func TestSparseDormancy(t *testing.T) {
	p := DefaultParams(NoRD)
	p.Width, p.Height = 8, 8
	n := MustNew(p)
	n.Run(2000) // no traffic: everything gates off and goes dormant
	if got := len(n.collectActive()); got != 0 {
		t.Errorf("idle NoRD network keeps %d nodes active, want 0", got)
	}
	for id := 0; id < p.NumNodes(); id++ {
		if n.RouterPowerOn(id) {
			t.Fatalf("router %d still on in an idle gated network", id)
		}
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
			for _, id := range n.collectActive() {
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
		return b, n.Collector().PacketLatency.Mean()
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
