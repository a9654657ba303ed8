package noc

import (
	"fmt"
	"math"
	"testing"

	"nord/internal/flit"
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

// TestRouterCountsSumToTotals: the per-router reports and the collector
// are one record of each router event, so on every design, topology and
// warm-up the routers sum to the totals — wakeups, gate-offs, routed and
// bypassed flits, misrouted hops and escapes, all inside the measured
// window — and so do the routers' and NIs' other counts (VA grants,
// buffer writes, link flits, the wake-stall sample, VC requests, ring
// injections and ejections, local flits); each router's wake causes sum
// to its wakeups, and each router's
// off and idle fractions are its shares of RouterOffCycles and IdleCycles,
// in a window every router spends all of in some power state and either
// idle or busy.
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
					if sum.Wakeups != col.Wakeups || sum.GateOffs != col.GateOffs {
						t.Errorf("routers sum to %d wakeups, %d gate-offs; totals %d, %d",
							sum.Wakeups, sum.GateOffs, col.Wakeups, col.GateOffs)
					}
					if sum.FlitsRouted != col.SAArbs || sum.BypassFlits != col.BypassHops {
						t.Errorf("routers sum to %d routed, %d bypassed flits; totals %d SA grants, %d bypass hops",
							sum.FlitsRouted, sum.BypassFlits, col.SAArbs, col.BypassHops)
					}
					if sum.Misroutes != col.MisroutedHops || sum.Escapes != col.EscapedPackets {
						t.Errorf("routers sum to %d misroutes, %d escapes; totals %d, %d",
							sum.Misroutes, sum.Escapes, col.MisroutedHops, col.EscapedPackets)
					}
					if off != col.RouterOffCycles {
						t.Errorf("off fractions sum to %d cycles, collector has %d", off, col.RouterOffCycles)
					}
					if got, want := col.RouterOnCycles+col.RouterOffCycles+col.RouterWakingCycles, col.Cycles*uint64(len(reps)); got != want {
						t.Errorf("on+off+waking = %d router-cycles, want %d (%d cycles x %d routers)", got, want, col.Cycles, len(reps))
					}
					if idle != col.IdleCycles {
						t.Errorf("idle fractions sum to %d cycles, collector has %d", idle, col.IdleCycles)
					}
					if got, want := col.IdleCycles+col.BusyCycles, col.Cycles*uint64(len(reps)); got != want {
						t.Errorf("idle+busy = %d router-cycles, want %d (%d cycles x %d routers)", got, want, col.Cycles, len(reps))
					}
					// The power model's other event counts and the wake-stall
					// sample have no report column: sum the records in-package.
					var rec stats.NoC
					for _, r := range n.routers {
						rec.VAArbs += r.statVAGrants
						rec.BufWrites += r.statBufWrites
						rec.LinkTraversals += r.statLinkFlits
						rec.WakeupStall.Merge(r.statWakeStall)
					}
					for _, ni := range n.nis {
						rec.NIVCRequests += ni.statVCRequests
						rec.BypassInjections += ni.statBypassInjects
						rec.BypassEjections += ni.statBypassEjects
						rec.LocalFlits += ni.statLocalFlits
					}
					tot := stats.NoC{
						VAArbs: col.VAArbs, BufWrites: col.BufWrites, LinkTraversals: col.LinkTraversals,
						WakeupStall: col.WakeupStall, NIVCRequests: col.NIVCRequests,
						BypassInjections: col.BypassInjections, BypassEjections: col.BypassEjections,
						LocalFlits: col.LocalFlits,
					}
					if rec != tot {
						t.Errorf("routers and NIs sum to %+v; totals %+v", rec, tot)
					}
					// Not vacuous: traffic moved, gated designs cycled their
					// routers, and NoRD used the ring, detoured and escaped.
					if col.SAArbs == 0 || (d.Blocks().PGSwitch && col.Wakeups == 0) ||
						(d.Blocks().Bypass && (col.BypassHops == 0 || col.MisroutedHops == 0 || col.EscapedPackets == 0)) {
						t.Errorf("vacuous run: %d SA grants, %d wakeups, %d bypass hops, %d misroutes, %d escapes",
							col.SAArbs, col.Wakeups, col.BypassHops, col.MisroutedHops, col.EscapedPackets)
					}
					// So did every record summed in-package: heads stalled on
					// a conventional wake, NoRD injected into and ejected off
					// the ring, and a concentrated router kept traffic local.
					b := d.Blocks()
					if tot.VAArbs == 0 || tot.BufWrites == 0 || tot.LinkTraversals == 0 || tot.NIVCRequests == 0 ||
						(b.PGSwitch && !b.Bypass && tot.WakeupStall.N == 0) ||
						(b.Bypass && (tot.BypassInjections == 0 || tot.BypassEjections == 0)) ||
						(n.conc > 1 && tot.LocalFlits == 0) {
						t.Errorf("vacuous run: %+v", tot)
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
	if col.Wakeups > col.PacketsInjected/10 {
		t.Errorf("NoRD thrashing: %d wakeups for %d packets", col.Wakeups, col.PacketsInjected)
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
