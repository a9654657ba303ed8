package trace

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"nord/internal/flit"
	"nord/internal/noc"
	"nord/internal/traffic"
)

func sampleTrace() *Trace {
	return &Trace{
		Nodes: 16,
		Events: []Event{
			{Cycle: 1, Src: 0, Dst: 5, Class: flit.ClassRequest, Flits: 1},
			{Cycle: 3, Src: 5, Dst: 0, Class: flit.ClassResponse, Flits: 5},
			{Cycle: 3, Src: 2, Dst: 9, Class: flit.ClassRequest, Flits: 1},
			{Cycle: 10, Src: 15, Dst: 1, Class: flit.ClassForward, Flits: 1},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Nodes != tr.Nodes || len(got.Events) != len(tr.Events) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Errorf("event %d: %+v != %+v", i, got.Events[i], tr.Events[i])
		}
	}
}

func TestSaveLoadGzip(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"t.trace", "t.trace.gz"} {
		path := filepath.Join(dir, name)
		tr := sampleTrace()
		if err := tr.Save(path); err != nil {
			t.Fatal(err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Events) != 4 {
			t.Errorf("%s: %d events", name, len(got.Events))
		}
	}
	if _, err := Load(filepath.Join(dir, "missing")); err == nil {
		t.Error("loading a missing file should fail")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not a header\n",
		"# nord-trace v1 nodes=16\n1 2\n",
		"# nord-trace v1 nodes=16\n1 0 0 0 1\n",  // self-addressed
		"# nord-trace v1 nodes=16\n1 0 99 0 1\n", // out of range
		"# nord-trace v1 nodes=16\n5 0 1 0 1\n1 1 2 0 1\n", // out of order
		"# nord-trace v1 nodes=16\n1 0 1 0 0\n",            // zero flits
		"# nord-trace v1 nodes=1\n",                        // bad node count
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Comments and blank lines are fine.
	ok := "# nord-trace v1 nodes=16\n\n# comment\n1 0 1 0 1\n"
	if _, err := Read(strings.NewReader(ok)); err != nil {
		t.Errorf("comments rejected: %v", err)
	}
}

// Property: write/read round-trips arbitrary valid traces.
func TestRoundTripProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		tr := &Trace{Nodes: 16}
		cyc := uint64(0)
		for _, v := range raw {
			cyc += uint64(v % 7)
			src := int(v % 16)
			dst := int((v / 16) % 16)
			if src == dst {
				dst = (dst + 1) % 16
			}
			length := 1
			if v%2 == 0 {
				length = 5
			}
			tr.Events = append(tr.Events, Event{Cycle: cyc, Src: src, Dst: dst, Class: flit.Class(v % 3), Flits: length})
		}
		var buf bytes.Buffer
		if tr.Write(&buf) != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got.Events) != len(tr.Events) {
			return false
		}
		for i := range tr.Events {
			if got.Events[i] != tr.Events[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(9)), MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRecordReplay: record a synthetic run, replay it onto a fresh
// network of a different design, and check every event is delivered.
func TestRecordReplay(t *testing.T) {
	// Record on No_PG.
	rec := NewRecorder(16)
	n1 := noc.MustNew(noc.DefaultParams(noc.NoPG))
	n1.SetInjectHook(rec.Hook)
	inj := traffic.NewSynthetic(n1, traffic.UniformRandom, 0.05, 3)
	for c := 0; c < 4000; c++ {
		inj.Tick(n1.Cycle())
		n1.Tick()
	}
	tr := rec.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) < 100 {
		t.Fatalf("recorded only %d events", len(tr.Events))
	}

	// Replay onto NoRD.
	n2 := noc.MustNew(noc.DefaultParams(noc.NoRD))
	rep := NewReplayer(n2, tr)
	delivered := 0
	n2.SetDeliveryHandler(func(p *flit.Packet, _ uint64) { delivered++ })
	n2.BeginMeasurement()
	for c := 0; c < 4000 || !rep.Done(); c++ {
		rep.Tick(n2.Cycle())
		n2.Tick()
		if c > 500_000 {
			t.Fatal("replay never completed")
		}
	}
	if err := n2.Drain(200_000); err != nil {
		t.Fatal(err)
	}
	if uint64(delivered) != rep.Injected || rep.Injected != uint64(len(tr.Events)) {
		t.Errorf("delivered %d of %d replayed (injected %d)", delivered, len(tr.Events), rep.Injected)
	}
	if rep.Dropped() != 0 || rep.Pending() != 0 {
		t.Error("replayer left events behind")
	}
	if rep.Offered() != uint64(len(tr.Events)) {
		t.Error("offered count wrong")
	}
}

// refusalCounter counts the injects its network refused.
type refusalCounter struct {
	*noc.Network
	refused int
}

func (c *refusalCounter) Inject(p *flit.Packet) bool {
	ok := c.Network.Inject(p)
	if !ok {
		c.refused++
	}
	return ok
}

// TestReplayBackpressure: a burst larger than the injection queue forces
// retries; nothing is lost.
func TestReplayBackpressure(t *testing.T) {
	n := noc.MustNew(noc.DefaultParams(noc.NoPG))
	tr := &Trace{Nodes: 16}
	for i := 0; i < 50; i++ {
		tr.Events = append(tr.Events, Event{Cycle: 1, Src: 0, Dst: 15, Class: 0, Flits: 5})
	}
	net := &refusalCounter{Network: n}
	rep := NewReplayer(net, tr)
	delivered := 0
	n.SetDeliveryHandler(func(pk *flit.Packet, _ uint64) { delivered++ })
	for c := 0; c < 100_000 && (!rep.Done() || n.InFlight() > 0); c++ {
		rep.Tick(n.Cycle())
		n.Tick()
	}
	if net.refused == 0 {
		t.Fatal("the network refused no inject; the test saw no backpressure")
	}
	if delivered != 50 {
		t.Errorf("delivered %d of 50 under backpressure", delivered)
	}
}
