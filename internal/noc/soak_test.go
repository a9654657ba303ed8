package noc

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"nord/internal/fault"
	"nord/internal/flit"
	"nord/internal/topology"
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

// FuzzNetwork draws a configuration and a fault schedule and runs it on
// both kernels: topology, 2-7 routers per side, design, the NoRD options
// and the two-stage pipeline (flags bits 0-3), VCs above the design's
// minimum, a rate in per mille and the traffic seed, then the seed and
// counts of a fault.Config, then the buffer depth, wakeup latency,
// GateIdleCycles, the NoRD wakeup thresholds, the class count with the
// class traffic rides on, and the traffic pattern. Each of the last knobs
// keeps its DefaultParams value (uniform traffic on class 0 of one) when
// its byte is 0, so an entry that predates them replays unchanged. Its
// oracles:
//   - Params.Validate and New agree on whether the configuration exists;
//   - the full-scan twin matches the event-sparse run on every output,
//     the run's error included;
//   - the only error is a DeadlockError, and only after a hard fail on a
//     design without the bypass ring (its mesh partitions);
//   - a run without an error drains to quiescence, with empty buffers
//     and restored credits, delivers each packet once, and accounts every
//     offered payload as delivered, lost in the fault report, or dropped
//     at a full source queue.
//
// The committed corpus holds the cells that diverged before
// nodeNeedsTick kept a router with a pending wake-watchdog stamp ticking,
// and soak-* cells drawn from TestSoakRandomConfigs' configurations.
func FuzzNetwork(f *testing.F) {
	patterns := []traffic.Pattern{traffic.UniformRandom, traffic.BitComplement, traffic.Transpose, traffic.Tornado}
	f.Fuzz(func(t *testing.T, kind, width, height, design, flags, vcs uint8, ratePermille uint16, seed, faultSeed int64, stuck, drop, hard, corrupt,
		buf, wake, gate, thrPerf, thrPower, classes, pattern uint8) {
		p := DefaultParams(Design(int(design) % NumDesigns))
		p.Topology = topology.Kind(kind % 3)
		p.Width, p.Height = 2+int(width%6), 2+int(height%6)
		p.VCsPerClass = MinVCs(p.Design, p.Topology) + int(vcs%3)
		p.TwoStageRouter = flags&8 != 0
		if v := int(buf % 8); v != 0 {
			p.BufferDepth = v
		}
		if v := int(wake % 32); v != 0 {
			p.WakeupLatency = v
		}
		if v := int(gate % 8); v != 0 {
			p.GateIdleCycles = v - 1
		}
		if v := int(thrPerf % 10); v != 0 {
			p.ThresholdPerf = v
		}
		if v := int(thrPower % 10); v != 0 {
			p.ThresholdPower = v
		}
		p.Classes = 1 + int(classes%3)
		if p.Design.Blocks().Bypass {
			p.AggressiveBypass = flags&1 != 0
			p.DynamicClassify = flags&2 != 0
			p.ForcedOff = flags&4 != 0
		}
		p.WatchdogLimit = 3_000
		if err := p.Validate(); err != nil {
			if _, nerr := New(p); nerr == nil {
				t.Fatalf("Validate rejects %+v (%v) but New builds it", p, err)
			}
			return
		}
		cfg := fault.Config{
			Seed:         faultSeed,
			Horizon:      3_000,
			StuckOff:     int(stuck % 4),
			DropWakeups:  int(drop % 4),
			HardFails:    int(hard % 3),
			CorruptLinks: int(corrupt % 17),
		}
		sched, err := fault.Generate(cfg, p.NumNodes())
		if err != nil {
			t.Fatal(err)
		}
		delivered := map[uint64]bool{}
		c := twinCell{
			p: p, sched: sched, rate: float64(ratePermille%151) / 1000, seed: seed,
			pattern: patterns[pattern%4], class: flit.Class(int(classes/3) % p.Classes),
			// Saturated draws (NoRD forced off on a large cmesh) take tens
			// of thousands of cycles to empty their source queues; a real
			// stall trips the 3000-cycle watchdog long before this budget.
			warmup: 600, measure: 3_000, drain: 400_000,
			onDeliver: func(pk *flit.Packet, _ uint64) {
				if delivered[pk.ID] {
					t.Fatalf("packet %d delivered twice", pk.ID)
				}
				delivered[pk.ID] = true
			},
		}
		n, inj, runErr := c.run(false)
		s := outputsOf(n, runErr)
		c.onDeliver = nil
		compareTwins(t, s, c.outputs(true))
		if runErr != nil {
			var de *fault.DeadlockError
			if !errors.As(runErr, &de) || cfg.HardFails == 0 || p.Design.Blocks().Bypass {
				t.Fatalf("%v with %+v: %v", p.Design, cfg, runErr)
			}
			return
		}
		rep := s.Faults
		if !n.Quiescent() || inj.Pending() > 0 {
			t.Fatalf("not drained: %d in flight, %d at the sources", n.InFlight(), inj.Pending())
		}
		if uint64(len(delivered)) != rep.PacketsDelivered {
			t.Fatalf("%d packets reached the delivery handler, the fault report counts %d", len(delivered), rep.PacketsDelivered)
		}
		if rep.PacketsDelivered+rep.PacketsLost != rep.PacketsInjected ||
			rep.PacketsInjected+inj.Dropped() != inj.Offered() {
			t.Fatalf("conservation broken: %d delivered + %d lost != %d injected, or + %d dropped != %d offered",
				rep.PacketsDelivered, rep.PacketsLost, rep.PacketsInjected, inj.Dropped(), inj.Offered())
		}
		checkQuiescentInvariants(t, n)
	})
}
