package noc

import (
	"fmt"
	"math"
	"testing"

	"nord/internal/flit"
	"nord/internal/power"
	"nord/internal/stats"
	"nord/internal/topology"
	"nord/internal/traffic"
)

// TestGateOffClampsRingCredits checks the Section 4.3 handshake: when a
// NoRD router gates off, its ring upstream holds exactly one credit per
// VC (the bypass latch); on wakeup the credits are topped back up.
func TestGateOffClampsRingCredits(t *testing.T) {
	p := DefaultParams(NoRD)
	n := MustNew(p)
	n.Run(60) // everything idle -> all routers gate off
	for id, r := range n.routers {
		if r.on() {
			t.Fatalf("router %d still on in an idle network", id)
		}
		pred := n.ring.Pred(id)
		out := n.ring.OutDir(pred)
		for v, c := range n.routers[pred].outCredits[out] {
			if c != 1 {
				t.Errorf("router %d vc %d: ring-upstream credit %d, want 1", id, v, c)
			}
		}
	}
	// Wake one router via sustained local traffic and check restoration.
	target := 5
	for i := 0; i < 10; i++ {
		n.Inject(n.NewPacket(target, 10, flit.ClassRequest, 1))
	}
	for i := 0; i < 3000 && !n.routers[target].on(); i++ {
		n.Tick()
	}
	if !n.routers[target].on() {
		t.Skip("router never woke under this threshold calibration")
	}
	if err := n.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	pred := n.ring.Pred(target)
	out := n.ring.OutDir(pred)
	for v, c := range n.routers[pred].outCredits[out] {
		held := n.routers[target].creditsHeld[v]
		if !n.routers[target].on() {
			// It may have re-gated; credits must be back to 1.
			if c != 1 {
				t.Errorf("vc %d: re-gated credits %d, want 1", v, c)
			}
			continue
		}
		if c+held != p.BufferDepth {
			t.Errorf("vc %d: credits %d + held %d != depth %d", v, c, held, p.BufferDepth)
		}
	}
}

// TestGateOffWaitsForRingCredit: a NoRD router that drains and gates off
// in one cycle must not leave a credit it returned that cycle to its ring
// upstream pending, or phase 9 lifts the upstream past the one-flit latch
// that gateOff clamped it to. Two flits then overrun the latch, or the
// credits restored at wakeup overflow the buffer. Both cells need the
// two-stage router (the last flit leaves the buffer and the router in the
// same cycle) and a gate-off horizon of 0 or 1; they failed before
// canGateOff waited for the credit.
func TestGateOffWaitsForRingCredit(t *testing.T) {
	torus := DefaultParams(NoRD) // failed with "bypass latch overrun"
	torus.Topology = topology.KindTorus
	torus.Width, torus.Height = 3, 2
	torus.VCsPerClass = MinVCs(NoRD, topology.KindTorus) + 1
	torus.WakeupLatency = 1
	torus.ThresholdPower = 7
	mesh := DefaultParams(NoRD) // failed with "buffer overflow"
	mesh.Width, mesh.Height = 3, 4
	mesh.VCsPerClass = 3
	mesh.BufferDepth = 2
	mesh.WakeupLatency = 9
	mesh.ThresholdPower = 3
	mesh.AggressiveBypass = true
	cells := []twinCell{
		{p: torus, rate: 0.029, seed: 15},
		{p: mesh, rate: 0.054, seed: 3309594278068593431, pattern: traffic.Transpose},
	}
	for _, c := range cells {
		for _, gate := range []int{0, 1, 2} {
			c.p.TwoStageRouter = true
			c.p.Classes, c.class = 2, 1
			c.p.GateIdleCycles = gate
			c.p.WatchdogLimit = 3_000
			c.warmup, c.measure, c.drain = 600, 3_000, 400_000
			n, _, err := c.run(false)
			if err != nil {
				t.Fatalf("%v %dx%d, GateIdleCycles %d: %v", c.p.Topology, c.p.Width, c.p.Height, gate, err)
			}
			if !n.Quiescent() || n.Collector().GateOffs == 0 {
				t.Fatalf("%v %dx%d, GateIdleCycles %d: %d in flight, %d gate-offs",
					c.p.Topology, c.p.Width, c.p.Height, gate, n.InFlight(), n.Collector().GateOffs)
			}
		}
	}
}

// TestRouterCountsSumToTotals: the per-router reports and the collector
// are one record of each router event, so on every design, topology and
// warm-up the routers sum to the totals — wakeups, gate-offs, routed and
// bypassed flits, misrouted hops and escapes, all inside the measured
// window — and so do the routers' records of priced events (every count
// the power model reads, NI events included) and the other counts (the
// wake-stall sample, VC requests); each router's wake causes sum to its
// wakeups, and each router's off and idle fractions are its shares of
// OffCycles and IdleCycles, in a window every router spends all of in
// some power state and either idle or busy.
func TestRouterCountsSumToTotals(t *testing.T) {
	for _, kind := range []topology.Kind{topology.KindMesh, topology.KindTorus, topology.KindCMesh} {
		for _, d := range Designs() {
			for _, warmup := range []int{500, 0} {
				t.Run(fmt.Sprintf("%v/%v/warmup%d", d, kind, warmup), func(t *testing.T) {
					p := DefaultParams(d)
					p.Topology = kind
					n := measuredRun(p, false, 0.08, 11, warmup, 3000)
					col, reps := n.Collector(), n.PerRouterReports()
					var sum RouterReport
					var off, idle uint64
					for _, rr := range reps {
						sum.Wakeups += rr.Wakeups
						sum.GateOffs += rr.GateOffs
						sum.FlitsRouted += rr.FlitsRouted
						sum.BypassFlits += rr.BypassFlits
						sum.Misroutes += rr.Misroutes
						sum.Escapes += rr.Escapes
						off += uint64(math.Round(rr.OffFraction * float64(col.Cycles)))
						idle += uint64(math.Round(rr.IdleFraction * float64(col.Cycles)))
						if causes := rr.WakeSA + rr.WakeLocal + rr.WakeVC + rr.WakeWatchdog; causes != rr.Wakeups {
							t.Errorf("router %d: wake causes sum to %d, wakeups %d", rr.ID, causes, rr.Wakeups)
						}
					}
					if sum.Wakeups != col.Wakeups() || sum.GateOffs != col.GateOffs {
						t.Errorf("routers sum to %d wakeups, %d gate-offs; totals %d, %d",
							sum.Wakeups, sum.GateOffs, col.Wakeups(), col.GateOffs)
					}
					if sum.FlitsRouted != col.SAGrants || sum.BypassFlits != col.BypassHops {
						t.Errorf("routers sum to %d routed, %d bypassed flits; totals %d SA grants, %d bypass hops",
							sum.FlitsRouted, sum.BypassFlits, col.SAGrants, col.BypassHops)
					}
					if sum.Misroutes != col.MisroutedHops || sum.Escapes != col.EscapedPackets {
						t.Errorf("routers sum to %d misroutes, %d escapes; totals %d, %d",
							sum.Misroutes, sum.Escapes, col.MisroutedHops, col.EscapedPackets)
					}
					if off != col.OffCycles {
						t.Errorf("off fractions sum to %d cycles, collector has %d", off, col.OffCycles)
					}
					if got, want := col.OnCycles+col.OffCycles+col.WakingCycles, col.Cycles*uint64(len(reps)); got != want {
						t.Errorf("on+off+waking = %d router-cycles, want %d (%d cycles x %d routers)", got, want, col.Cycles, len(reps))
					}
					if idle != col.IdleCycles {
						t.Errorf("idle fractions sum to %d cycles, collector has %d", idle, col.IdleCycles)
					}
					if got, want := col.IdleCycles+col.BusyCycles, col.Cycles*uint64(len(reps)); got != want {
						t.Errorf("idle+busy = %d router-cycles, want %d (%d cycles x %d routers)", got, want, col.Cycles, len(reps))
					}
					// The records of priced events, the wake-stall sample and
					// the VC requests have no report column: sum them
					// in-package.
					var ev power.Events
					var stall stats.Sample
					var vcReqs uint64
					for _, r := range n.routers {
						ev.Add(&r.ev)
						stall.Merge(r.statWakeStall)
					}
					for _, ni := range n.nis {
						vcReqs += ni.statVCRequests
					}
					if ev != col.Events {
						t.Errorf("router records sum to %+v; total %+v", ev, col.Events)
					}
					if stall != col.WakeupStall || vcReqs != col.NIVCRequests {
						t.Errorf("routers and NIs sum to stall %+v, %d VC requests; totals %+v, %d",
							stall, vcReqs, col.WakeupStall, col.NIVCRequests)
					}
					// Not vacuous: traffic moved, gated designs cycled their
					// routers, and NoRD used the ring, detoured and escaped.
					if col.SAGrants == 0 || (d.Blocks().PGSwitch && col.Wakeups() == 0) ||
						(d.Blocks().Bypass && (col.BypassHops == 0 || col.MisroutedHops == 0 || col.EscapedPackets == 0)) {
						t.Errorf("vacuous run: %d SA grants, %d wakeups, %d bypass hops, %d misroutes, %d escapes",
							col.SAGrants, col.Wakeups(), col.BypassHops, col.MisroutedHops, col.EscapedPackets)
					}
					// So did every record summed in-package: heads stalled on
					// a conventional wake, NoRD injected into and ejected off
					// the ring, and a concentrated router kept traffic local.
					b := d.Blocks()
					if ev.VAGrants == 0 || ev.BufWrites == 0 || ev.LinkTraversals == 0 || vcReqs == 0 ||
						(b.PGSwitch && !b.Bypass && stall.N == 0) ||
						(b.Bypass && (ev.BypassInjections == 0 || ev.BypassEjections == 0)) ||
						(n.conc > 1 && ev.LocalFlits == 0) {
						t.Errorf("vacuous run: %+v, stall %+v, %d VC requests", ev, stall, vcReqs)
					}
				})
			}
		}
	}
}

// TestConvOptHidesWakeupStall: early wakeup generates WU at RC time, so
// packets stalled on a waking router wait measurably less in
// Conv_PG_OPT than in Conv_PG (Section 3.3's 3-cycle hiding), which
// shows up as lower average packet latency.
func TestConvOptHidesWakeupStall(t *testing.T) {
	stall := map[Design]float64{}
	lat := map[Design]float64{}
	for _, d := range []Design{ConvPG, ConvPGOpt} {
		n := MustNew(DefaultParams(d))
		inj := traffic.NewSynthetic(n, traffic.UniformRandom, 0.10, 9)
		n.BeginMeasurement()
		for c := 0; c < 20_000; c++ {
			inj.Tick(n.Cycle())
			n.Tick()
		}
		stall[d] = n.Collector().WakeupStall.Mean()
		lat[d] = n.Collector().AvgPacketLatency()
	}
	if stall[ConvPGOpt] >= stall[ConvPG] {
		t.Errorf("Conv_PG_OPT mean wakeup stall (%.2f) should be below Conv_PG (%.2f)",
			stall[ConvPGOpt], stall[ConvPG])
	}
	if lat[ConvPGOpt] >= lat[ConvPG] {
		t.Errorf("Conv_PG_OPT latency (%.2f) should beat Conv_PG (%.2f)",
			lat[ConvPGOpt], lat[ConvPG])
	}
}

// TestEscapedPacketsStayOnRing: once a packet enters the escape ring it
// must follow ring links only, and its dateline VC can only go 0 -> 1
// (Section 4.2's deadlock argument depends on both).
func TestEscapedPacketsStayOnRing(t *testing.T) {
	p := DefaultParams(NoRD)
	p.ForcedOff = true // everything rides the ring; escapes are common
	n := MustNew(p)
	n.BeginMeasurement()
	inj := traffic.NewSynthetic(n, traffic.UniformRandom, 0.03, 4)
	sawEscape := false
	n.SetDeliveryHandler(func(pk *flit.Packet, _ uint64) {
		if pk.Escaped {
			sawEscape = true
			if pk.EscapeVC != 0 && pk.EscapeVC != 1 {
				t.Errorf("packet %d escape VC %d out of the dateline pair", pk.ID, pk.EscapeVC)
			}
		}
	})
	for c := 0; c < 15_000; c++ {
		inj.Tick(n.Cycle())
		n.Tick()
	}
	if !sawEscape {
		t.Error("no packet used the escape ring under forced-off overload")
	}
}

// TestMisrouteCapEnforced: delivered packets never exceed the cap by
// more than the single forced hop that triggered the escape.
func TestMisrouteCapEnforced(t *testing.T) {
	p := DefaultParams(NoRD)
	p.MisrouteCap = 2
	p.ForcedOff = true
	n := MustNew(p)
	n.BeginMeasurement()
	inj := traffic.NewSynthetic(n, traffic.UniformRandom, 0.02, 5)
	n.SetDeliveryHandler(func(pk *flit.Packet, _ uint64) {
		if pk.Misroutes > p.MisrouteCap {
			t.Errorf("packet %d took %d misroutes on adaptive resources (cap %d)",
				pk.ID, pk.Misroutes, p.MisrouteCap)
		}
	})
	for c := 0; c < 10_000; c++ {
		inj.Tick(n.Cycle())
		n.Tick()
	}
}

// TestOnRouterOffRequeuesLocalPacket: a NoRD NI that had set up a
// local-port injection but sent nothing re-queues the packet when its
// router gates off, and the packet still gets delivered (via the ring).
func TestOnRouterOffRequeuesLocalPacket(t *testing.T) {
	p := DefaultParams(NoRD)
	p.ThresholdPerf = 30
	p.ThresholdPower = 30 // keep routers asleep
	n := MustNew(p)
	n.BeginMeasurement()
	delivered := 0
	n.SetDeliveryHandler(func(pk *flit.Packet, _ uint64) { delivered++ })
	// Inject while the router is still on (before first gate-off): the
	// NI may begin a local-port injection that gets interrupted.
	n.Inject(n.NewPacket(0, 9, flit.ClassRequest, 5))
	for c := 0; c < 5_000 && delivered == 0; c++ {
		n.Tick()
	}
	if delivered != 1 {
		t.Fatal("packet lost across a gate-off during injection setup")
	}
}

// TestPhaseCountersConsistent cross-checks the occupancy fast-path
// counters against a full scan after a busy run (the optimisation must
// not drift).
func TestPhaseCountersConsistent(t *testing.T) {
	for _, d := range []Design{ConvPGOpt, NoRD} {
		n := MustNew(DefaultParams(d))
		inj := traffic.NewSynthetic(n, traffic.UniformRandom, 0.20, 8)
		for c := 0; c < 5_000; c++ {
			inj.Tick(n.Cycle())
			n.Tick()
		}
		for id, r := range n.routers {
			var cnt [5]int
			buf, st := 0, 0
			for dd := topology.Dir(0); dd < topology.NumDirs; dd++ {
				if r.stReg[dd] != nil {
					st++
				}
				for _, vc := range r.in[dd] {
					if vc.phase != vcIdle {
						cnt[vc.phase]++
					}
					buf += len(vc.buf)
				}
			}
			for ph := 1; ph < 5; ph++ {
				if cnt[ph] != r.phaseCnt[ph] {
					t.Fatalf("%v router %d: phase %d counter %d, actual %d", d, id, ph, r.phaseCnt[ph], cnt[ph])
				}
			}
			if buf != r.bufFlits || st != r.stFlits {
				t.Fatalf("%v router %d: flit counters buf=%d/%d st=%d/%d", d, id, r.bufFlits, buf, r.stFlits, st)
			}
		}
	}
}

// TestNoRDQuietHysteresis: a router that wakes under load must stay on
// while through-traffic continues (no mid-burst thrash).
func TestNoRDQuietHysteresis(t *testing.T) {
	p := DefaultParams(NoRD)
	n := MustNew(p)
	n.BeginMeasurement()
	inj := traffic.NewSynthetic(n, traffic.UniformRandom, 0.25, 10)
	for c := 0; c < 20_000; c++ {
		inj.Tick(n.Cycle())
		n.Tick()
	}
	col := n.Collector()
	// At 25% load the network is busy; wakeups must be rare relative to
	// the traffic (tens, not thousands: roughly one per burst, not one
	// per packet).
	if col.Wakeups() > col.PacketsInjected/10 {
		t.Errorf("NoRD thrashing: %d wakeups for %d packets", col.Wakeups(), col.PacketsInjected)
	}
}

// TestRingOrderOverride exercises the RingOrder parameter.
func TestRingOrderOverride(t *testing.T) {
	p := DefaultParams(NoRD)
	p.Width, p.Height = 2, 2
	p.RingOrder = []int{0, 1, 3, 2}
	n := MustNew(p)
	if n.Ring().Succ(0) != 1 || n.Ring().Succ(3) != 2 {
		t.Error("ring order override not applied")
	}
	p.RingOrder = []int{0, 3, 1, 2} // not a mesh cycle
	if _, err := New(p); err == nil {
		t.Error("invalid ring order accepted")
	}
}

// TestWakeupLatencyRespected: the first wakeup of a conventional design
// takes at least WakeupLatency cycles before the router is on.
func TestWakeupLatencyRespected(t *testing.T) {
	p := DefaultParams(ConvPG)
	p.WakeupLatency = 20
	n := MustNew(p)
	n.Run(50) // gate everything
	if n.RouterPowerOn(0) {
		t.Fatal("router 0 still on")
	}
	n.Inject(n.NewPacket(0, 3, flit.ClassRequest, 1))
	woke := -1
	start := int(n.Cycle())
	for i := 0; i < 200; i++ {
		n.Tick()
		if n.RouterPowerOn(0) {
			woke = int(n.Cycle())
			break
		}
	}
	if woke < 0 {
		t.Fatal("router 0 never woke")
	}
	if woke-start < 20 {
		t.Errorf("router 0 woke after %d cycles, wakeup latency is 20", woke-start)
	}
}
