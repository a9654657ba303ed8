package sim

import (
	"fmt"
	"testing"

	"nord/internal/noc"
)

// TestSyntheticTopologies runs every design on the torus and the
// concentrated mesh end-to-end through the experiment harness: traffic
// must be delivered, latency finite, and the link-energy scale of the
// longer channels must show up in the power breakdown.
func TestSyntheticTopologies(t *testing.T) {
	for _, topo := range []string{"torus", "cmesh"} {
		for _, d := range []noc.Design{noc.NoPG, noc.ConvPG, noc.ConvPGOpt, noc.NoRD} {
			t.Run(fmt.Sprintf("%s/%s", topo, d), func(t *testing.T) {
				r, err := runSynthetic(SynthConfig{
					Design: d, Topology: topo, Width: 4, Height: 4,
					Rate: 0.05, Warmup: 500, Measure: 3000, Seed: 9,
				})
				if err != nil {
					t.Fatal(err)
				}
				if r.PacketsDelivered == 0 {
					t.Fatal("no packets delivered")
				}
				if r.AvgPacketLatency <= 0 {
					t.Errorf("non-positive latency %v", r.AvgPacketLatency)
				}
				if r.Energy.LinkStatic <= 0 || r.Energy.LinkDynamic <= 0 {
					t.Errorf("link energy bands empty: %+v", r.Energy)
				}
				wantNodes := 16
				if topo == "cmesh" {
					wantNodes = 64
				}
				if r.Nodes != wantNodes {
					t.Errorf("Nodes = %d, want %d terminals", r.Nodes, wantNodes)
				}
			})
		}
	}

	// The unknown-topology path must error loudly, not fall back to mesh.
	if _, err := runSynthetic(SynthConfig{Design: noc.NoPG, Topology: "hypercube", Measure: 10}); err == nil {
		t.Error("unknown topology silently accepted")
	}
}

// TestTorusLinkEnergyScale: identical traffic on mesh vs torus — the
// torus has more links (wrap channels) and each costs 2x (folded-torus
// pitch), so its link static energy must exceed the mesh's by more than
// the raw link-count ratio alone.
func TestTorusLinkEnergyScale(t *testing.T) {
	base := SynthConfig{Design: noc.NoPG, Width: 4, Height: 4, Rate: 0.05, Warmup: 500, Measure: 2000, Seed: 3}
	mesh, err := runSynthetic(base)
	if err != nil {
		t.Fatal(err)
	}
	tc := base
	tc.Topology = "torus"
	torus, err := runSynthetic(tc)
	if err != nil {
		t.Fatal(err)
	}
	// Mesh 4x4: 48 links at 1.0x. Torus 4x4: 64 links at 2.0x.
	wantRatio := (64.0 * 2.0) / 48.0
	gotRatio := torus.Energy.LinkStatic / mesh.Energy.LinkStatic
	if diff := gotRatio/wantRatio - 1; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("torus/mesh link static ratio = %v, want %v", gotRatio, wantRatio)
	}
}
