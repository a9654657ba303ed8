package noc

import (
	"testing"

	"nord/internal/flit"
	"nord/internal/topology"
)

// runUntilDelivered ticks the network until count packets are delivered or
// the cycle budget is exhausted.
func runUntilDelivered(t *testing.T, n *Network, count int, budget int) []deliveredPkt {
	t.Helper()
	var got []deliveredPkt
	n.SetDeliveryHandler(func(p *flit.Packet, cyc uint64) {
		// The network recycles a delivered packet: keep a copy.
		cp := *p
		got = append(got, deliveredPkt{p: &cp, at: cyc})
	})
	for i := 0; i < budget && len(got) < count; i++ {
		n.Tick()
	}
	if len(got) < count {
		t.Fatalf("only %d of %d packets delivered within %d cycles (in flight: %d)",
			len(got), count, budget, n.InFlight())
	}
	return got
}

type deliveredPkt struct {
	p  *flit.Packet
	at uint64
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams(NoRD)
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.Width = 1 },
		func(p *Params) { p.Classes = 0 },
		func(p *Params) { p.VCsPerClass = 2 }, // NoRD needs 3
		func(p *Params) { p.BufferDepth = 0 },
		func(p *Params) { p.WakeupLatency = 0 },
		func(p *Params) { p.ThresholdPerf = 0 },
		func(p *Params) { p.MisrouteCap = -1 },
		func(p *Params) { p.PerfCentric = []int{99} },
	}
	for i, mutate := range bad {
		p := DefaultParams(NoRD)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
	// Conventional designs accept 2 VCs per class.
	p := DefaultParams(ConvPG)
	p.VCsPerClass = 2
	if err := p.Validate(); err != nil {
		t.Errorf("ConvPG with 2 VCs should validate: %v", err)
	}
}

// TestValidateMatchesNew: every Params Validate accepts is one New
// builds, and every one it refuses New refuses too — across topologies,
// designs and small grids, odd x odd NoRD meshes included.
func TestValidateMatchesNew(t *testing.T) {
	for _, kind := range []topology.Kind{topology.KindMesh, topology.KindTorus, topology.KindCMesh} {
		for _, d := range Designs() {
			for w := 2; w <= 7; w++ {
				for h := 2; h <= 7; h++ {
					p := DefaultParams(d)
					p.Topology, p.Width, p.Height = kind, w, h
					verr := p.Validate()
					_, nerr := New(p)
					if (verr == nil) != (nerr == nil) {
						t.Errorf("%v %v %dx%d: Validate %v, New %v", d, kind, w, h, verr, nerr)
					}
				}
			}
		}
	}
}

func TestDesignString(t *testing.T) {
	names := map[Design]string{NoPG: "No_PG", ConvPG: "Conv_PG", ConvPGOpt: "Conv_PG_OPT", NoRD: "NoRD"}
	for d, want := range names {
		if d.String() != want {
			t.Errorf("%d: got %q want %q", d, d.String(), want)
		}
	}
	if got := Design(9).String(); got != "design(9)" {
		t.Errorf("out-of-table design prints %q", got)
	}
}

// Zero-load single-flit latency on No_PG: injection (3 cycles to first RC)
// + 5 cycles per hop + ejection (4 cycles after last RC).
func TestNoPGZeroLoadLatency(t *testing.T) {
	n := MustNew(DefaultParams(NoPG))
	n.BeginMeasurement()
	pkt := n.NewPacket(0, 3, flit.ClassRequest, 1)
	if !n.Inject(pkt) {
		t.Fatal("inject failed")
	}
	got := runUntilDelivered(t, n, 1, 1000)
	lat := got[0].at - pkt.InjectTime
	const want = 3 + 5*3 + 4 // 22
	if lat != want {
		t.Errorf("zero-load latency = %d, want %d", lat, want)
	}
	if pkt.Hops != 3 {
		t.Errorf("hops = %d, want 3", pkt.Hops)
	}
}

// A 5-flit packet's tail trails the head by 4 cycles.
func TestNoPGMultiFlitLatency(t *testing.T) {
	n := MustNew(DefaultParams(NoPG))
	n.BeginMeasurement()
	pkt := n.NewPacket(0, 3, flit.ClassRequest, 5)
	if !n.Inject(pkt) {
		t.Fatal("inject failed")
	}
	got := runUntilDelivered(t, n, 1, 1000)
	lat := got[0].at - pkt.InjectTime
	const want = 22 + 4
	if lat != want {
		t.Errorf("5-flit latency = %d, want %d", lat, want)
	}
}

// With NoRD and every router forced off, packets ride the bypass ring end
// to end: injection takes 2 NI cycles + LT, each bypassed hop 3 cycles.
func TestNoRDForcedOffRingTraversal(t *testing.T) {
	p := DefaultParams(NoRD)
	p.ForcedOff = true
	n := MustNew(p)
	n.BeginMeasurement()
	// Ring: 0,1,2,3,7,6,5,9,10,11,15,14,13,12,8,4 -> 0.
	pkt := n.NewPacket(0, 4, flit.ClassRequest, 1)
	if !n.Inject(pkt) {
		t.Fatal("inject failed")
	}
	got := runUntilDelivered(t, n, 1, 1000)
	lat := got[0].at - pkt.InjectTime
	// Injection: NI alloc+stage2 at cycle 1, stage3 at 2, first arrival at
	// 4; then 14 more ring hops at 3 cycles each; sink on arrival.
	const want = 4 + 3*14
	if lat != uint64(want) {
		t.Errorf("ring traversal latency = %d, want %d", lat, want)
	}
	if n.Collector().BypassHops == 0 {
		t.Error("no bypass hops recorded")
	}
	if on := n.RouterPowerOn(0); on {
		t.Error("forced-off router reports on")
	}
}

// Short ring trip: 0 -> 1 is a single bypassed hop.
func TestNoRDForcedOffOneHop(t *testing.T) {
	p := DefaultParams(NoRD)
	p.ForcedOff = true
	n := MustNew(p)
	n.BeginMeasurement()
	pkt := n.NewPacket(0, 1, flit.ClassRequest, 1)
	n.Inject(pkt)
	got := runUntilDelivered(t, n, 1, 200)
	if lat := got[0].at - pkt.InjectTime; lat != 4 {
		t.Errorf("one-hop ring latency = %d, want 4", lat)
	}
	if n.Collector().BypassEjections == 0 {
		t.Error("destination sink not recorded as bypass ejection")
	}
}

// Conventional PG: an idle network gates off, and a packet then pays
// wakeup latency at every hop (cumulative wakeup, Section 3.3).
func TestConvPGCumulativeWakeup(t *testing.T) {
	n := MustNew(DefaultParams(ConvPG))
	n.BeginMeasurement()
	n.Run(50) // let routers gate off
	offCount := 0
	for id := 0; id < 16; id++ {
		if !n.RouterPowerOn(id) {
			offCount++
		}
	}
	if offCount != 16 {
		t.Fatalf("expected all 16 routers gated off after idle, got %d", offCount)
	}
	pkt := n.NewPacket(0, 3, flit.ClassRequest, 1)
	n.Inject(pkt)
	got := runUntilDelivered(t, n, 1, 2000)
	lat := got[0].at - pkt.InjectTime
	// Lower bound: base 22 + wakeup of the source router (12, fully
	// exposed) + substantially exposed wakeups downstream.
	if lat <= 22+12 {
		t.Errorf("Conv_PG latency %d suspiciously low; wakeups not charged?", lat)
	}
	if n.Collector().Wakeups() < 4 {
		t.Errorf("expected at least 4 wakeups (src + 3 downstream), got %d", n.Collector().Wakeups())
	}
}

// Conv_PG_OPT hides part of the wakeup and so beats Conv_PG on the same
// scenario.
func TestConvPGOptFasterThanConvPG(t *testing.T) {
	lat := map[Design]uint64{}
	for _, d := range []Design{ConvPG, ConvPGOpt} {
		n := MustNew(DefaultParams(d))
		n.BeginMeasurement()
		n.Run(50)
		pkt := n.NewPacket(0, 15, flit.ClassRequest, 1)
		n.Inject(pkt)
		got := runUntilDelivered(t, n, 1, 5000)
		lat[d] = got[0].at - pkt.InjectTime
	}
	if lat[ConvPGOpt] >= lat[ConvPG] {
		t.Errorf("Conv_PG_OPT (%d) should beat Conv_PG (%d) on a cold path", lat[ConvPGOpt], lat[ConvPG])
	}
}

// NoRD delivers to a node whose router is off without waking anything
// when traffic is sparse (threshold > 1 on power-centric routers).
func TestNoRDNoWakeupForSparseTraffic(t *testing.T) {
	p := DefaultParams(NoRD)
	p.ThresholdPower = 30
	p.ThresholdPerf = 30 // make all routers reluctant to wake
	n := MustNew(p)
	n.BeginMeasurement()
	n.Run(50)
	for id := 0; id < 16; id++ {
		if n.RouterPowerOn(id) {
			t.Fatalf("router %d still on after idle", id)
		}
	}
	pkt := n.NewPacket(5, 10, flit.ClassRequest, 1)
	n.Inject(pkt)
	runUntilDelivered(t, n, 1, 2000)
	if n.Collector().Wakeups() != 0 {
		t.Errorf("NoRD woke %d routers for a single sparse packet", n.Collector().Wakeups())
	}
}

// NoRD's wakeup metric does fire under sustained load on a
// performance-centric router (threshold 1).
func TestNoRDWakeupMetricFires(t *testing.T) {
	p := DefaultParams(NoRD)
	p.PerfCentric = []int{5}
	n := MustNew(p)
	n.BeginMeasurement()
	n.Run(50)
	// Locally inject at node 5 repeatedly: its NI VC requests must wake
	// router 5.
	for i := 0; i < 8; i++ {
		n.Inject(n.NewPacket(5, 10, flit.ClassRequest, 1))
	}
	n.Run(60)
	if n.Collector().Wakeups() == 0 {
		t.Error("sustained injection did not wake the performance-centric router")
	}
}

// Packets between all pairs are delivered on every design (connectivity,
// no loss, no duplication).
func TestAllPairsDelivery(t *testing.T) {
	for _, d := range []Design{NoPG, ConvPG, ConvPGOpt, NoRD} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			n := MustNew(DefaultParams(d))
			n.BeginMeasurement()
			seen := map[uint64]bool{}
			n.SetDeliveryHandler(func(p *flit.Packet, _ uint64) {
				if seen[p.ID] {
					t.Errorf("packet %d delivered twice", p.ID)
				}
				seen[p.ID] = true
			})
			want := 0
			for s := 0; s < 16; s++ {
				for dst := 0; dst < 16; dst++ {
					if s == dst {
						continue
					}
					if n.Inject(n.NewPacket(s, dst, flit.ClassRequest, 1)) {
						want++
					}
					n.Tick() // stagger injections to respect queue depth
				}
			}
			if err := n.Drain(200_000); err != nil {
				t.Fatal(err)
			}
			if len(seen) != want {
				t.Errorf("delivered %d packets, want %d", len(seen), want)
			}
		})
	}
}

func TestInjectValidation(t *testing.T) {
	n := MustNew(DefaultParams(NoPG))
	if n.Inject(n.NewPacket(0, 0, flit.ClassRequest, 1)) {
		t.Error("self-addressed packet accepted")
	}
	if n.Inject(n.NewPacket(-1, 3, flit.ClassRequest, 1)) {
		t.Error("invalid source accepted")
	}
	if n.Inject(n.NewPacket(0, 99, flit.ClassRequest, 1)) {
		t.Error("invalid destination accepted")
	}
}

func TestInjectBackpressure(t *testing.T) {
	n := MustNew(DefaultParams(NoPG))
	ok := 0
	for i := 0; i < InjectQueueDepth+1; i++ {
		if n.Inject(n.NewPacket(0, 3, flit.ClassRequest, 1)) {
			ok++
		}
	}
	if ok != InjectQueueDepth {
		t.Errorf("accepted %d packets into a depth-%d queue", ok, InjectQueueDepth)
	}
}
