// Package traffic provides the synthetic workloads of the evaluation:
// uniform random and bit complement (Section 5.2), further classic
// patterns for testing, and a Bernoulli open-loop injector with the
// paper's bimodal packet lengths (1-flit short / 5-flit long).
package traffic

import (
	"fmt"
	"math/rand"

	"nord/internal/flit"
	"nord/internal/topology"
)

// Pattern maps a source node to a destination node.
type Pattern func(m topology.Mesh, src int, rng *rand.Rand) int

// UniformRandom picks any node other than the source uniformly.
func UniformRandom(m topology.Mesh, src int, rng *rand.Rand) int {
	d := rng.Intn(m.N() - 1)
	if d >= src {
		d++
	}
	return d
}

// BitComplement sends to the bit-complement of the node index (the
// diagonally opposite node): node (x,y) -> (W-1-x, H-1-y).
func BitComplement(m topology.Mesh, src int, _ *rand.Rand) int {
	x, y := m.Coord(src)
	return m.ID(m.W-1-x, m.H-1-y)
}

// Transpose sends (x, y) -> (y, x); meaningful on square meshes.
func Transpose(m topology.Mesh, src int, _ *rand.Rand) int {
	x, y := m.Coord(src)
	if x >= m.H || y >= m.W {
		return BitComplement(m, src, nil)
	}
	return m.ID(y, x)
}

// Tornado sends halfway around each row: (x, y) -> (x + W/2 - 1 mod W, y).
func Tornado(m topology.Mesh, src int, _ *rand.Rand) int {
	x, y := m.Coord(src)
	return m.ID((x+m.W/2-1+m.W)%m.W, y)
}

// Hotspot returns a pattern sending the given fraction of traffic to the
// hotspot nodes and the rest uniformly.
func Hotspot(spots []int, frac float64) Pattern {
	return func(m topology.Mesh, src int, rng *rand.Rand) int {
		if len(spots) > 0 && rng.Float64() < frac {
			d := spots[rng.Intn(len(spots))]
			if d != src {
				return d
			}
		}
		return UniformRandom(m, src, rng)
	}
}

// PatternByName resolves the patterns used by the CLI tools.
func PatternByName(name string) (Pattern, error) {
	switch name {
	case "uniform":
		return UniformRandom, nil
	case "bitcomp", "bit-complement":
		return BitComplement, nil
	case "transpose":
		return Transpose, nil
	case "tornado":
		return Tornado, nil
	default:
		return nil, fmt.Errorf("traffic: unknown pattern %q (uniform, bitcomp, transpose, tornado)", name)
	}
}

// Network is the slice of the noc API the injectors need; *noc.Network
// satisfies it.
type Network interface {
	Mesh() topology.Mesh
	NewPacket(src, dst int, class flit.Class, length int) *flit.Packet
	Inject(p *flit.Packet) bool
}

// Bimodal packet lengths (Section 5.2): "packets are uniformly assigned
// two lengths. Short packets are single-flit while long packets have 5
// flits."
const (
	ShortFlits = 1
	LongFlits  = 5
	// avgFlits is the expected packet length with the 50/50 mix.
	avgFlits = (ShortFlits + LongFlits) / 2.0
	// shortFrac is the probability a packet is short: the 50/50 mix.
	shortFrac = 0.5
)

// maxPending bounds each node's source queue; beyond it packets are
// dropped (the network is saturated anyway).
const maxPending = 64

// Synthetic is an open-loop Bernoulli injector: each node independently
// generates packets so that the offered load equals Rate flits/node/cycle.
// Half the packets are short (shortFrac), and each node queues at most
// maxPending packets the network has not yet accepted.
type Synthetic struct {
	Net     Network
	Pattern Pattern
	// Rate is the offered load in flits per node per cycle.
	Rate float64
	// Class is the protocol class to inject on.
	Class flit.Class

	rng     *rand.Rand
	pending [][]*flit.Packet
	offered uint64
	dropped uint64
}

// NewSynthetic builds an injector with the paper's defaults.
func NewSynthetic(net Network, pattern Pattern, rate float64, seed int64) *Synthetic {
	return &Synthetic{
		Net:     net,
		Pattern: pattern,
		Rate:    rate,
		rng:     rand.New(rand.NewSource(seed)),
		pending: make([][]*flit.Packet, net.Mesh().N()),
	}
}

// Tick generates this cycle's packets and drains per-node source queues.
func (s *Synthetic) Tick(cycle uint64) {
	m := s.Net.Mesh()
	pPkt := s.Rate / avgFlits
	for src := 0; src < m.N(); src++ {
		if s.rng.Float64() < pPkt {
			dst := s.Pattern(m, src, s.rng)
			if dst == src {
				continue
			}
			length := LongFlits
			if s.rng.Float64() < shortFrac {
				length = ShortFlits
			}
			s.offered++
			if len(s.pending[src]) < maxPending {
				s.pending[src] = append(s.pending[src], s.Net.NewPacket(src, dst, s.Class, length))
			} else {
				s.dropped++
			}
		}
		// Drain the source queue into the NI. Dequeue by copying down so
		// the slice keeps its capacity (reslicing would leak it and force
		// a reallocation per maxPending packets).
		for len(s.pending[src]) > 0 {
			if !s.Net.Inject(s.pending[src][0]) {
				break
			}
			q := s.pending[src]
			copy(q, q[1:])
			q[len(q)-1] = nil
			s.pending[src] = q[:len(q)-1]
		}
	}
}

// Offered returns the number of packets generated so far (whether or not
// accepted yet).
func (s *Synthetic) Offered() uint64 { return s.offered }

// Dropped returns packets abandoned because the source queue overflowed
// (only meaningful beyond saturation).
func (s *Synthetic) Dropped() uint64 { return s.dropped }

// Pending returns packets generated but not yet accepted by the network
// (sitting in per-node source queues).
func (s *Synthetic) Pending() int {
	n := 0
	for _, q := range s.pending {
		n += len(q)
	}
	return n
}
