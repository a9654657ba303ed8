package noc

import (
	"fmt"
	"math/rand"
	"testing"

	"nord/internal/flit"
	"nord/internal/traffic"
)

// TestSoakRandomConfigs drives randomly drawn configurations (mesh size,
// VC count, buffer depth, design, pipeline variant, feature flags, load)
// through short random-traffic runs and checks the global invariants:
// every injected packet is delivered exactly once, and the network
// returns to a clean quiescent state (empty buffers, restored credits).
// Any deadlock trips the no-progress watchdog; any credit or latch
// protocol violation panics.
func TestSoakRandomConfigs(t *testing.T) {
	iterations := 60
	if testing.Short() {
		iterations = 10
	}
	rng := rand.New(rand.NewSource(20260704))
	designs := []Design{NoPG, ConvPG, ConvPGOpt, NoRD}
	for i := 0; i < iterations; i++ {
		p := DefaultParams(designs[rng.Intn(len(designs))])
		// Random mesh with at least one even dimension (ring feasibility).
		p.Width = 2 + rng.Intn(5)
		p.Height = 2 + rng.Intn(5)
		if p.Width%2 == 1 && p.Height%2 == 1 {
			p.Height++
		}
		p.Classes = 1 + rng.Intn(3)
		p.VCsPerClass = 3 + rng.Intn(3)
		p.BufferDepth = 2 + rng.Intn(6)
		p.WakeupLatency = 6 + rng.Intn(16)
		p.MisrouteCap = 1 + rng.Intn(6)
		p.ThresholdPower = 2 + rng.Intn(8)
		p.TwoStageRouter = rng.Intn(3) == 0
		p.AggressiveBypass = rng.Intn(2) == 0
		if p.Design == NoRD {
			p.DynamicClassify = rng.Intn(3) == 0
			p.ForcedOff = rng.Intn(6) == 0
		}
		rate := 0.01 + rng.Float64()*0.15
		seed := rng.Int63()

		label := fmt.Sprintf("iter %d: %v %dx%d cls=%d vcs=%d buf=%d wl=%d cap=%d 2st=%v aggr=%v dyn=%v forced=%v rate=%.3f seed=%d",
			i, p.Design, p.Width, p.Height, p.Classes, p.VCsPerClass, p.BufferDepth,
			p.WakeupLatency, p.MisrouteCap, p.TwoStageRouter, p.AggressiveBypass,
			p.DynamicClassify, p.ForcedOff, rate, seed)

		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s\npanic: %v", label, r)
				}
			}()
			n := MustNew(p)
			delivered := map[uint64]bool{}
			n.SetDeliveryHandler(func(pk *flit.Packet, _ uint64) {
				if delivered[pk.ID] {
					t.Fatalf("%s\npacket %d delivered twice", label, pk.ID)
				}
				delivered[pk.ID] = true
			})
			n.BeginMeasurement()
			inj := traffic.NewSynthetic(n, traffic.UniformRandom, rate, seed)
			if p.Classes > 1 && rng.Intn(2) == 0 {
				inj.Class = flit.ClassResponse
			}
			for c := 0; c < 2500; c++ {
				inj.Tick(n.Cycle())
				n.Tick()
			}
			inj.Rate = 0
			for k := 0; k < 400_000 && inj.Pending() > 0; k++ {
				inj.Tick(n.Cycle())
				n.Tick()
			}
			if inj.Pending() > 0 {
				t.Fatalf("%s\nsource queues stuck (%d pending)", label, inj.Pending())
			}
			if err := n.Drain(400_000); err != nil {
				t.Fatalf("%s\n%v", label, err)
			}
			if uint64(len(delivered))+inj.Dropped() != inj.Offered() {
				t.Fatalf("%s\nconservation broken: %d delivered + %d dropped != %d offered",
					label, len(delivered), inj.Dropped(), inj.Offered())
			}
			n.FinishMeasurement()
			checkQuiescentInvariants(t, n)
		}()
		if t.Failed() {
			return
		}
	}
}
