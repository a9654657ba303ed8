package noc

import (
	"testing"

	"nord/internal/flit"
	"nord/internal/topology"
	"nord/internal/traffic"
)

// checkQuiescentInvariants validates conservation properties once no
// packets are in flight: every buffer empty, every VC idle, and every
// credit counter restored to exactly the downstream buffer capacity
// (BufferDepth toward powered-on routers, 1 toward gated-off NoRD
// routers' bypass latches).
func checkQuiescentInvariants(t *testing.T, n *Network) {
	t.Helper()
	if n.InFlight() != 0 {
		t.Fatalf("network not quiescent: %d in flight", n.InFlight())
	}
	p := &n.p
	for id, r := range n.routers {
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			if r.stReg[d] != nil {
				t.Errorf("router %d: ST register %v still holds a flit", id, d)
			}
			for v, vc := range r.in[d] {
				if !vc.empty() || vc.phase != vcIdle {
					t.Errorf("router %d port %v vc %d: not idle (phase %d, %d flits)", id, d, v, vc.phase, len(vc.buf))
				}
			}
			if d == topology.Local {
				continue
			}
			nb, ok := n.topo.Neighbor(id, d)
			if !ok {
				continue
			}
			wantCredit := p.BufferDepth
			if p.Design == NoRD && !n.routers[nb].on() && n.ring.OutDir(id) == d {
				wantCredit = 1
			}
			if !n.routers[nb].on() && !(p.Design == NoRD && n.ring.OutDir(id) == d) {
				// Port unusable while neighbor off; its credits are
				// whatever they were clamped/held to — skip.
				continue
			}
			for v := 0; v < p.vcsPerPort(); v++ {
				if got := r.outCredits[d][v] + n.routers[nb].creditsHeld[v]; got != wantCredit {
					t.Errorf("router %d out %v vc %d: credits %d (want %d)", id, d, v, got, wantCredit)
				}
				if r.outOwner[d][v] != ownerFree {
					t.Errorf("router %d out %v vc %d: owner not free at quiescence", id, d, v)
				}
			}
		}
		ni := n.nis[id]
		if ni.injectOut != nil || len(ni.toLocal) > 0 || len(ni.ejPend) > 0 {
			t.Errorf("NI %d: pipeline not drained", id)
		}
		for v := range ni.latch {
			if ni.latch[v] != nil || ni.fwdOutVC[v] >= 0 {
				t.Errorf("NI %d vc %d: bypass state not drained", id, v)
			}
		}
		for v, c := range ni.localCredits {
			if c != p.BufferDepth {
				t.Errorf("NI %d local vc %d: credits %d, want %d", id, v, c, p.BufferDepth)
			}
		}
	}
}

func stressOne(t *testing.T, p Params, pattern traffic.Pattern, rate float64, cycles int, seed int64) *Network {
	t.Helper()
	n := MustNew(p)
	inj := traffic.NewSynthetic(n, pattern, rate, seed)
	delivered := 0
	n.SetDeliveryHandler(func(pk *flit.Packet, _ uint64) { delivered++ })
	n.BeginMeasurement()
	for c := 0; c < cycles; c++ {
		inj.Tick(n.Cycle())
		n.Tick()
	}
	// Drain the per-node source queues (without generating new packets),
	// then the network itself.
	inj.Rate = 0
	for i := 0; i < 500_000 && inj.Pending() > 0; i++ {
		inj.Tick(n.Cycle())
		n.Tick()
	}
	if inj.Pending() > 0 {
		t.Fatalf("source queues never drained (%d pending)", inj.Pending())
	}
	if err := n.Drain(500_000); err != nil {
		t.Fatal(err)
	}
	n.FinishMeasurement()
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if uint64(delivered)+inj.Dropped() != inj.Offered() {
		t.Fatalf("packet conservation broken: delivered %d + dropped %d != offered %d",
			delivered, inj.Dropped(), inj.Offered())
	}
	checkQuiescentInvariants(t, n)
	return n
}

func TestStressAllDesignsUniform(t *testing.T) {
	for _, d := range []Design{NoPG, ConvPG, ConvPGOpt, NoRD} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			for _, rate := range []float64{0.02, 0.10, 0.25} {
				n := stressOne(t, DefaultParams(d), traffic.UniformRandom, rate, 6000, 99)
				lat := n.Collector().AvgPacketLatency()
				if lat < 10 || lat > 4000 {
					t.Errorf("rate %.2f: implausible latency %.1f", rate, lat)
				}
			}
		})
	}
}

func TestStressBitComplement(t *testing.T) {
	for _, d := range []Design{NoPG, NoRD} {
		n := stressOne(t, DefaultParams(d), traffic.BitComplement, 0.08, 6000, 5)
		if n.Collector().PacketsDelivered == 0 {
			t.Error("no measured deliveries")
		}
	}
}

func TestStress8x8(t *testing.T) {
	if testing.Short() {
		t.Skip("8x8 stress is slow")
	}
	for _, d := range []Design{ConvPGOpt, NoRD} {
		p := DefaultParams(d)
		p.Width, p.Height = 8, 8
		stressOne(t, p, traffic.UniformRandom, 0.08, 5000, 17)
	}
}

func TestStressTwoClasses(t *testing.T) {
	p := DefaultParams(NoRD)
	p.Classes = 2
	n := MustNew(p)
	delivered := map[flit.Class]int{}
	n.SetDeliveryHandler(func(pk *flit.Packet, _ uint64) { delivered[pk.Class]++ })
	n.BeginMeasurement()
	inj1 := traffic.NewSynthetic(n, traffic.UniformRandom, 0.05, 1)
	inj2 := traffic.NewSynthetic(n, traffic.UniformRandom, 0.05, 2)
	inj2.Class = flit.ClassResponse
	for c := 0; c < 4000; c++ {
		inj1.Tick(n.Cycle())
		inj2.Tick(n.Cycle())
		n.Tick()
	}
	if err := n.Drain(200_000); err != nil {
		t.Fatal(err)
	}
	n.FinishMeasurement()
	if delivered[flit.ClassRequest] == 0 || delivered[flit.ClassResponse] == 0 {
		t.Errorf("both classes should deliver: %v", delivered)
	}
	checkQuiescentInvariants(t, n)
}

func TestStressForcedOffHighLoad(t *testing.T) {
	// The pure bypass ring saturates at a small fraction of full-network
	// throughput (Figure 7 reports ~14%); it must still deliver and stay
	// deadlock-free under overload.
	p := DefaultParams(NoRD)
	p.ForcedOff = true
	n := stressOne(t, p, traffic.UniformRandom, 0.10, 4000, 23)
	if n.Collector().Wakeups() != 0 {
		t.Errorf("forced-off network woke %d routers", n.Collector().Wakeups())
	}
	if !(n.Collector().BypassHops > 0) {
		t.Error("no bypass traffic recorded")
	}
}

func TestStressNoRDPerfCentric(t *testing.T) {
	p := DefaultParams(NoRD)
	p.PerfCentric = []int{4, 5, 6, 7, 13, 14} // the paper's Figure 6 set
	n := stressOne(t, p, traffic.UniformRandom, 0.10, 6000, 31)
	// Under sustained 10% load the network must wake at least the
	// performance-centric routers at some point.
	if n.Collector().Wakeups() == 0 {
		t.Error("no wakeups under sustained load with threshold-1 routers")
	}
}

// NoRD at moderate load must beat Conv_PG on average latency and on
// wakeup count (the paper's headline claims, Figures 9b and 11).
func TestNoRDBeatsConvPGAtLowLoad(t *testing.T) {
	results := map[Design]*Network{}
	for _, d := range []Design{ConvPG, NoRD} {
		p := DefaultParams(d)
		p.PerfCentric = []int{4, 5, 6, 7, 13, 14}
		results[d] = stressOne(t, p, traffic.UniformRandom, 0.05, 8000, 77)
	}
	nordCol, convCol := results[NoRD].Collector(), results[ConvPG].Collector()
	if nordCol.Wakeups() >= convCol.Wakeups() {
		t.Errorf("NoRD wakeups (%d) should be far below Conv_PG (%d)", nordCol.Wakeups(), convCol.Wakeups())
	}
	if nordCol.AvgPacketLatency() >= convCol.AvgPacketLatency() {
		t.Errorf("NoRD latency (%.1f) should beat Conv_PG (%.1f)",
			nordCol.AvgPacketLatency(), convCol.AvgPacketLatency())
	}
}
