package traffic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nord/internal/flit"
	"nord/internal/topology"
)

// fakeNet implements Network without simulating anything.
type fakeNet struct {
	mesh     topology.Mesh
	accepted []*flit.Packet
	reject   bool
	nextID   uint64
}

func (f *fakeNet) Mesh() topology.Mesh { return f.mesh }
func (f *fakeNet) NewPacket(src, dst int, class flit.Class, length int) *flit.Packet {
	f.nextID++
	return &flit.Packet{ID: f.nextID, Src: src, Dst: dst, Class: class, Length: length}
}
func (f *fakeNet) Inject(p *flit.Packet) bool {
	if f.reject {
		return false
	}
	f.accepted = append(f.accepted, p)
	return true
}

func TestPatternsStayOnMesh(t *testing.T) {
	m := topology.MustMesh(4, 4)
	rng := rand.New(rand.NewSource(1))
	pats := map[string]Pattern{
		"uniform":   UniformRandom,
		"bitcomp":   BitComplement,
		"transpose": Transpose,
		"tornado":   Tornado,
		"hotspot":   Hotspot([]int{5}, 0.5),
	}
	for name, p := range pats {
		for src := 0; src < m.N(); src++ {
			for i := 0; i < 20; i++ {
				d := p(m, src, rng)
				if !m.Valid(d) {
					t.Errorf("%s: invalid destination %d from %d", name, d, src)
				}
			}
		}
	}
}

func TestUniformNeverSelf(t *testing.T) {
	m := topology.MustMesh(4, 4)
	rng := rand.New(rand.NewSource(2))
	for src := 0; src < m.N(); src++ {
		for i := 0; i < 200; i++ {
			if UniformRandom(m, src, rng) == src {
				t.Fatalf("uniform returned self for %d", src)
			}
		}
	}
}

func TestBitComplement(t *testing.T) {
	m := topology.MustMesh(4, 4)
	if d := BitComplement(m, 0, nil); d != 15 {
		t.Errorf("bitcomp(0) = %d, want 15", d)
	}
	if d := BitComplement(m, 5, nil); d != 10 {
		t.Errorf("bitcomp(5) = %d, want 10", d)
	}
}

func TestTranspose(t *testing.T) {
	m := topology.MustMesh(4, 4)
	if d := Transpose(m, m.ID(1, 2), nil); d != m.ID(2, 1) {
		t.Errorf("transpose(1,2) = %d, want %d", d, m.ID(2, 1))
	}
}

func TestTornado(t *testing.T) {
	m := topology.MustMesh(4, 4)
	// (0,0) -> (0+2-1 mod 4, 0) = (1,0)
	if d := Tornado(m, 0, nil); d != 1 {
		t.Errorf("tornado(0) = %d, want 1", d)
	}
}

func TestPatternByName(t *testing.T) {
	for _, name := range []string{"uniform", "bitcomp", "transpose", "tornado"} {
		if _, err := PatternByName(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := PatternByName("nope"); err == nil {
		t.Error("unknown pattern should error")
	}
}

func TestSyntheticRate(t *testing.T) {
	f := &fakeNet{mesh: topology.MustMesh(4, 4)}
	s := NewSynthetic(f, UniformRandom, 0.3, 42)
	cycles := 20000
	for c := 0; c < cycles; c++ {
		s.Tick(uint64(c))
	}
	var flits uint64
	for _, p := range f.accepted {
		flits += uint64(p.Length)
	}
	got := float64(flits) / float64(cycles) / 16.0
	if got < 0.27 || got > 0.33 {
		t.Errorf("offered load = %.3f flits/node/cycle, want ~0.30", got)
	}
	if s.Dropped() != 0 {
		t.Errorf("unexpected drops: %d", s.Dropped())
	}
	// Packet length mix is bimodal 1 / 5.
	short, long := 0, 0
	for _, p := range f.accepted {
		switch p.Length {
		case ShortFlits:
			short++
		case LongFlits:
			long++
		default:
			t.Fatalf("unexpected packet length %d", p.Length)
		}
	}
	ratio := float64(short) / float64(short+long)
	if ratio < 0.45 || ratio > 0.55 {
		t.Errorf("short fraction %.3f, want ~0.5", ratio)
	}
}

func TestSyntheticBackpressureDrops(t *testing.T) {
	f := &fakeNet{mesh: topology.MustMesh(4, 4), reject: true}
	s := NewSynthetic(f, UniformRandom, 1.0, 7)
	for c := 0; c < 5000; c++ {
		s.Tick(uint64(c))
	}
	if s.Dropped() == 0 {
		t.Error("expected drops when the network rejects everything")
	}
	if s.Offered() == 0 {
		t.Error("no packets offered")
	}
}

// Property: all generated packets have valid src/dst and src != dst.
func TestSyntheticPacketsValid(t *testing.T) {
	f := func(seed int64, w8, h8 uint8) bool {
		w := int(w8%5) + 2
		h := int(h8%5) + 2
		fn := &fakeNet{mesh: topology.MustMesh(w, h)}
		s := NewSynthetic(fn, UniformRandom, 0.5, seed)
		for c := 0; c < 500; c++ {
			s.Tick(uint64(c))
		}
		for _, p := range fn.accepted {
			if !fn.mesh.Valid(p.Src) || !fn.mesh.Valid(p.Dst) || p.Src == p.Dst {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(8)), MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
