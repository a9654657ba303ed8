package memsys

import (
	"testing"

	"nord/internal/flit"
	"nord/internal/noc"
)

func TestCacheBasics(t *testing.T) {
	c := newCache(4, 2)
	if c.lookup(0) != nil {
		t.Error("empty cache hit")
	}
	c.insert(0, stateS)
	if l := c.lookup(0); l == nil || l.state() != stateS {
		t.Error("lookup after insert failed")
	}
	// Fill set 0 beyond capacity: blocks 0, 4, 8 all map to set 0.
	c.insert(4, stateM)
	_, vs, ev := c.insert(8, stateS)
	if !ev {
		t.Fatal("expected an eviction")
	}
	if vs != stateS {
		t.Errorf("LRU victim state = %v, want S (block 0 was oldest)", vs)
	}
	if c.peek(0) != nil {
		t.Error("block 0 should have been evicted")
	}
	if c.peek(4) == nil || c.peek(8) == nil {
		t.Error("blocks 4 and 8 should be resident")
	}
	c.invalidate(4)
	if c.peek(4) != nil {
		t.Error("invalidate failed")
	}
	if c.hitRate() <= 0 {
		t.Error("hit rate should be positive")
	}
}

func TestCacheVictimBlockReconstruction(t *testing.T) {
	c := newCache(8, 1)
	c.insert(3, stateM)
	victim, vs, ev := c.insert(11, stateS) // same set (3 mod 8)
	if !ev || victim != 3 || vs != stateM {
		t.Errorf("victim = %d/%v/%v, want 3/M/true", victim, vs, ev)
	}
}

func TestCacheGeometryValidation(t *testing.T) {
	for _, f := range []func(){
		func() { newCache(3, 2) },
		func() { newCache(0, 2) },
		func() { newCache(4, 0) },
		func() { newCache(4, 17) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry did not panic")
				}
			}()
			f()
		}()
	}
	// Profile.Validate rejects the same geometries, so no profile that
	// validates reaches those panics.
	for _, bad := range []func(*Profile){
		func(p *Profile) { p.L1Sets = 3 },
		func(p *Profile) { p.L2Sets = 0 },
		func(p *Profile) { p.L1Ways = 0 },
		func(p *Profile) { p.L2Ways = 17 },
		func(p *Profile) { p.L1Ways = 17 },
	} {
		p := Profiles()[0]
		bad(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("profile geometry L1 %dx%d, L2 %dx%d accepted", p.L1Sets, p.L1Ways, p.L2Sets, p.L2Ways)
		}
	}
}

func TestMsgTypeMappings(t *testing.T) {
	if MsgGetS.Class() != flit.ClassRequest || MsgFwdGetS.Class() != flit.ClassForward || MsgData.Class() != flit.ClassResponse {
		t.Error("class mapping wrong")
	}
	if MsgData.Flits() != 5 || MsgGetS.Flits() != 1 || MsgPutM.Flits() != 5 {
		t.Error("length mapping wrong")
	}
	if MsgGetS.String() != "GetS" || MsgType(99).String() == "" {
		t.Error("names wrong")
	}
}

func TestProfilesValid(t *testing.T) {
	ps := Profiles()
	if len(ps) != 10 {
		t.Fatalf("expected 10 PARSEC-like profiles, got %d", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
	}
	if _, err := ProfileByName("x264"); err != nil {
		t.Error(err)
	}
	if _, err := ProfileByName("doom"); err == nil {
		t.Error("unknown profile should fail")
	}
	bad := ps[0]
	bad.MemOpFrac = 2
	if bad.Validate() == nil {
		t.Error("invalid fraction accepted")
	}
}

// newSys builds a memory system over a network of the given design.
func newSys(t testing.TB, design noc.Design, prof Profile, seed int64) *System {
	t.Helper()
	p := noc.DefaultParams(design)
	p.Classes = flit.NumClasses
	net := noc.MustNew(p)
	sys, err := NewSystem(net, prof, seed)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func shortProfile(name string) Profile {
	p, _ := ProfileByName(name)
	p.InstrPerCore = 4000
	return p
}

func TestSystemRunsToCompletion(t *testing.T) {
	sys := newSys(t, noc.NoPG, shortProfile("bodytrack"), 1)
	exec, err := sys.Run(3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if exec == 0 {
		t.Fatal("zero execution time")
	}
	if sys.InstrDone() != 16*4000 {
		t.Errorf("instructions retired %d, want %d", sys.InstrDone(), 16*4000)
	}
	hr := sys.L1HitRate()
	if hr < 0.2 || hr >= 1.0 {
		t.Errorf("implausible L1 hit rate %.3f", hr)
	}
	reads, _ := sys.MemAccesses()
	if reads == 0 {
		t.Error("no memory reads at all (working set fits L2 suspiciously)")
	}
	if sys.MsgCounts()[MsgGetS] == 0 || sys.MsgCounts()[MsgData] == 0 {
		t.Error("no coherence traffic generated")
	}
}

func TestSystemCoherenceInvariant(t *testing.T) {
	// After completion, for every directory entry in M (owned) there is
	// exactly one L1 holding the block in E or M; for S/I no L1 holds it
	// exclusively (single-writer invariant).
	sys := newSys(t, noc.NoPG, shortProfile("dedup"), 3)
	if _, err := sys.Run(3_000_000); err != nil {
		t.Fatal(err)
	}
	if err := sys.Drain(200_000); err != nil {
		t.Fatal(err)
	}
	for home, h := range sys.homes {
		for block, e := range h.dir {
			owners := 0
			for _, l1 := range sys.l1s {
				if line := l1.c.peek(block); line != nil && line.state() >= stateE {
					owners++
				}
			}
			switch e.state {
			case dirM:
				if owners != 1 {
					// The owner may have the data in its writeback
					// buffer mid-PutM/PutE; allow that.
					if owners == 0 && sys.l1s[e.owner].wbBuf[block] {
						continue
					}
					t.Errorf("home %d block %#x: dir M but %d E/M owners", home, block, owners)
				}
			case dirS, dirI:
				if owners != 0 {
					t.Errorf("home %d block %#x: dir %d but %d E/M owners", home, block, e.state, owners)
				}
			}
		}
	}
}

func TestSystemSharingGeneratesInvalidations(t *testing.T) {
	sys := newSys(t, noc.NoPG, shortProfile("x264"), 5)
	if _, err := sys.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if err := sys.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	mc := sys.MsgCounts()
	if mc[MsgInv] == 0 || mc[MsgInvAck] == 0 {
		t.Errorf("shared writes should cause invalidations: %v", mc)
	}
	if mc[MsgFwdGetS] == 0 && mc[MsgFwdGetM] == 0 {
		t.Error("no 3-hop transfers at all")
	}
	if mc[MsgPutM] == 0 {
		t.Error("no writebacks at all")
	}
	if mc[MsgInv] != mc[MsgInvAck] {
		t.Errorf("every Inv must be acked: %d vs %d", mc[MsgInv], mc[MsgInvAck])
	}
}

func TestSystemOnAllDesigns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-design run is slow")
	}
	prof := shortProfile("ferret")
	exec := map[noc.Design]uint64{}
	for _, d := range []noc.Design{noc.NoPG, noc.ConvPG, noc.ConvPGOpt, noc.NoRD} {
		sys := newSys(t, d, prof, 7)
		e, err := sys.Run(6_000_000)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		exec[d] = e
	}
	// Power gating may only slow execution down; No_PG is the lower
	// bound (Figure 12).
	for d, e := range exec {
		if d == noc.NoPG {
			continue
		}
		if e < exec[noc.NoPG] {
			t.Errorf("%v finished faster (%d) than No_PG (%d)", d, e, exec[noc.NoPG])
		}
	}
	// Conv_PG should be the slowest of the gated designs on average; we
	// only assert the weaker, robust property that NoRD beats Conv_PG.
	if exec[noc.NoRD] > exec[noc.ConvPG] {
		t.Errorf("NoRD exec time (%d) should not exceed Conv_PG (%d)", exec[noc.NoRD], exec[noc.ConvPG])
	}
}

func TestNewSystemValidation(t *testing.T) {
	p := noc.DefaultParams(noc.NoPG) // Classes = 1, not enough
	net := noc.MustNew(p)
	if _, err := NewSystem(net, shortProfile("vips"), 1); err == nil {
		t.Error("class mismatch should fail")
	}
	p2 := noc.DefaultParams(noc.NoPG)
	p2.Classes = flit.NumClasses
	net2 := noc.MustNew(p2)
	bad := shortProfile("vips")
	bad.InstrPerCore = 0
	if _, err := NewSystem(net2, bad, 1); err == nil {
		t.Error("invalid profile should fail")
	}
}

func TestMsgQueue(t *testing.T) {
	var q msgQueue
	q.push(&Msg{Type: MsgGetS, Block: 1}, 5)
	q.push(&Msg{Type: MsgGetS, Block: 2}, 3)
	if q.pop(2) != nil {
		t.Error("popped before ready")
	}
	if m := q.pop(3); m == nil || m.Block != 2 {
		t.Error("ready-time ordering broken")
	}
	if m := q.pop(10); m == nil || m.Block != 1 {
		t.Error("second pop broken")
	}
	if q.len() != 0 {
		t.Error("queue not empty")
	}
}
