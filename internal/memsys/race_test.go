package memsys

import (
	"errors"
	"strings"
	"testing"

	"nord/internal/fault"
	"nord/internal/flit"
	"nord/internal/noc"
)

// TestWritebackRaceMIA is the regression test for the MI_A deadlock: an
// L1 that re-writes a block whose PutM is still in flight must not issue
// a GetM that the home will forward back to itself. The scenario is
// driven organically: a tiny direct-mapped-ish working set with heavy
// writes forces frequent dirty evictions and immediate re-stores.
func TestWritebackRaceMIA(t *testing.T) {
	prof := baseline("mia-race")
	prof.InstrPerCore = 8000
	prof.MemOpFrac = 0.6
	prof.ComputePhaseMemScale = 1.0
	prof.MemPhaseLen = 1000
	prof.ComputePhaseLen = 1
	// Working set ~2x the L1 so dirty evictions are constant.
	prof.PrivateBlocks = 1200
	prof.SharedBlocks = 256
	prof.SharedFrac = 0.3
	prof.WriteFrac = 0.7
	p := noc.DefaultParams(noc.ConvPGOpt)
	p.Classes = flit.NumClasses
	net := noc.MustNew(p)
	sys, err := NewSystem(net, prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(30_000_000); err != nil {
		t.Fatalf("wedged: %v\n%s", err, sys.DebugDump())
	}
	if err := sys.Drain(200_000); err != nil {
		t.Fatal(err)
	}
	if sys.MsgCounts()[MsgPutM] == 0 {
		t.Fatal("scenario generated no writebacks; race not exercised")
	}
}

// TestDebugDumpReportsStalls sanity-checks the diagnostic dump.
func TestDebugDumpReportsStalls(t *testing.T) {
	sys := newSys(t, noc.NoPG, shortProfile("vips"), 2)
	// Mid-run: something should be outstanding.
	for i := 0; i < 200; i++ {
		sys.Tick()
	}
	dump := sys.DebugDump()
	if !strings.Contains(dump, "core") {
		t.Errorf("dump misses unfinished cores:\n%s", dump)
	}
	if _, err := sys.Run(3_000_000); err != nil {
		t.Fatal(err)
	}
	if err := sys.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	dump = sys.DebugDump()
	if strings.Contains(dump, "mshr") || strings.Contains(dump, "busy") {
		t.Errorf("quiescent dump still shows transactions:\n%s", dump)
	}
}

// TestGlobalPhasesOscillate checks the chip-global workload phase
// oscillator actually alternates and that skewed observers lag.
func TestGlobalPhasesOscillate(t *testing.T) {
	sys := newSys(t, noc.NoPG, shortProfile("canneal"), 3)
	changes := 0
	last := sys.memPhaseAt(sys.now())
	for i := 0; i < 20_000 && !sys.Done(); i++ {
		sys.Tick()
		cur := sys.memPhaseAt(sys.now())
		if cur != last {
			changes++
			// Immediately after a flip, an observer with skew still sees
			// the previous phase.
			if sys.now() > 100 && sys.memPhaseAt(sys.now()-50) != last {
				t.Error("skewed observer did not lag the phase flip")
			}
		}
		last = cur
	}
	if changes < 2 {
		t.Errorf("phases flipped only %d times in 20k cycles", changes)
	}
}

// TestMemCtrlChannelSpacing: back-to-back DRAM accesses are spaced by
// MemBusyCycles.
func TestMemCtrlChannelSpacing(t *testing.T) {
	sys := newSys(t, noc.NoPG, shortProfile("x264"), 4)
	if _, err := sys.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	reads, writes := sys.MemAccesses()
	if reads == 0 {
		t.Fatal("no DRAM reads")
	}
	// The four channels can serve at most measured-cycles/MemBusyCycles
	// accesses each.
	maxPerChannel := sys.now() / uint64(sys.prof.MemBusyCycles)
	if reads+writes > 4*maxPerChannel {
		t.Errorf("%d DRAM accesses exceed channel capacity %d", reads+writes, 4*maxPerChannel)
	}
}

// TestHomeBlockingSerialises: while a block is busy at the home, later
// requests for it queue and are eventually served in order.
func TestHomeBlockingSerialises(t *testing.T) {
	sys := newSys(t, noc.NoPG, shortProfile("dedup"), 6)
	if _, err := sys.Run(3_000_000); err != nil {
		t.Fatal(err)
	}
	if err := sys.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	for id, h := range sys.homes {
		if len(h.busy) != 0 {
			t.Errorf("home %d still busy after drain", id)
		}
		for blk, q := range h.blocked {
			if len(q) != 0 {
				t.Errorf("home %d has %d stranded requests for %#x", id, len(q), blk)
			}
		}
	}
}

// TestExclusiveStateSavesUpgrades: MESI's point — a private
// read-then-write pattern costs one GetS (granted E) and zero GetMs,
// and clean evictions signal PutE rather than shipping data.
func TestExclusiveStateSavesUpgrades(t *testing.T) {
	prof := baseline("mesi-private")
	prof.InstrPerCore = 6000
	prof.MemOpFrac = 0.5
	prof.ComputePhaseMemScale = 1.0
	prof.MemPhaseLen = 1000
	prof.ComputePhaseLen = 1
	prof.PrivateBlocks = 1500 // exceeds L1 -> clean evictions happen
	prof.SharedBlocks = 0
	prof.SharedFrac = 0 // strictly private: every block single-owner
	prof.WriteFrac = 0.5
	p := noc.DefaultParams(noc.NoPG)
	p.Classes = flit.NumClasses
	net := noc.MustNew(p)
	sys, err := NewSystem(net, prof, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(30_000_000); err != nil {
		t.Fatal(err)
	}
	mc := sys.MsgCounts()
	// With fully private data, every first touch gets E; stores after
	// loads upgrade silently, and write-first misses use GetM. GetM must
	// be far below the store count's naive upgrade demand: no S->M
	// upgrades exist because nothing is ever in S.
	if mc[MsgInv] != 0 || mc[MsgFwdGetS] != 0 || mc[MsgFwdGetM] != 0 {
		t.Errorf("private-only run produced sharing traffic: %v", mc)
	}
	if mc[MsgPutE] == 0 {
		t.Error("no clean-exclusive evictions recorded")
	}
	if mc[MsgGetS] == 0 {
		t.Error("no read misses at all")
	}
}

// TestRunReturnsNetworkFailure: a network that trips its deadlock
// watchdog fails the run with the structured error — it used to panic
// out of Tick, taking the serving process with it. A 2-cycle horizon on
// Conv_PG trips as soon as a packet waits out a 12-cycle router wakeup.
func TestRunReturnsNetworkFailure(t *testing.T) {
	p := noc.DefaultParams(noc.ConvPG)
	p.Classes = flit.NumClasses
	p.WatchdogLimit = 2
	sys, err := NewSystem(noc.MustNew(p), shortProfile("x264"), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Run(100_000)
	var de *fault.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want a *fault.DeadlockError from Run, got %T: %v", err, err)
	}
	if err := sys.Drain(10); !errors.As(err, &de) {
		t.Fatalf("a failed network stays failed: Drain returned %v", err)
	}
}
