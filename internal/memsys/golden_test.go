package memsys

import (
	"fmt"
	"strings"
	"testing"

	"nord/internal/noc"
)

// systemGoldens pin, for one cell per design, what a full-system run
// reports beyond the network's statistics: the cycle the last core
// finished, retired instructions, the L1 hit rate, the DRAM accesses and
// every message type's count. A change to how the system is stepped must
// leave each line as it is.
var systemGoldens = map[string]string{
	"dedup/No_PG":      "exec=51592 instr=64000 l1=0.26967326277036358 dram=5461/134 msgs: GetS=3392 GetM=2713 PutM=320 PutE=326 FwdGetS=250 FwdGetM=187 Inv=153 Data=6105 DataWB=250 InvAck=153 OwnerAck=187 WBAck=646 MemRead=5461 MemWrite=134 MemData=5461",
	"ferret/Conv_PG":   "exec=57249 instr=64000 l1=0.25330996884735202 dram=3528/11 msgs: GetS=2475 GetM=1362 PutM=48 PutE=74 FwdGetS=149 FwdGetM=73 Inv=60 Data=3837 DataWB=149 InvAck=60 OwnerAck=73 WBAck=122 MemRead=3528 MemWrite=11 MemData=3528",
	"vips/Conv_PG_OPT": "exec=59335 instr=64000 l1=0.29956782966164225 dram=5291/93 msgs: GetS=3186 GetM=2754 PutM=252 PutE=286 FwdGetS=229 FwdGetM=197 Inv=168 Data=5940 DataWB=229 InvAck=168 OwnerAck=197 WBAck=538 MemRead=5291 MemWrite=93 MemData=5291",
	"canneal/NoRD":     "exec=107070 instr=64000 l1=0.14219352806865601 dram=9049/868 msgs: GetS=5884 GetM=4305 PutM=1272 PutE=1482 FwdGetS=438 FwdGetM=287 Inv=253 Data=10189 DataWB=438 InvAck=253 OwnerAck=287 WBAck=2754 MemRead=9049 MemWrite=868 MemData=9049",
}

// systemDigest renders a finished run's memory-system results.
func systemDigest(s *System, exec uint64) string {
	reads, writes := s.MemAccesses()
	var b strings.Builder
	fmt.Fprintf(&b, "exec=%d instr=%d l1=%.17g dram=%d/%d msgs:", exec, s.InstrDone(), s.L1HitRate(), reads, writes)
	counts := s.MsgCounts()
	for t := MsgGetS; t <= MsgMemData; t++ {
		fmt.Fprintf(&b, " %v=%d", t, counts[t])
	}
	return b.String()
}

func TestSystemGoldens(t *testing.T) {
	cells := []struct {
		design noc.Design
		bench  string
		seed   int64
	}{
		{noc.NoPG, "dedup", 11},
		{noc.ConvPG, "ferret", 12},
		{noc.ConvPGOpt, "vips", 13},
		{noc.NoRD, "canneal", 14},
	}
	for _, c := range cells {
		name := fmt.Sprintf("%s/%v", c.bench, c.design)
		sys := newSys(t, c.design, shortProfile(c.bench), c.seed)
		exec, err := sys.Run(3_000_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sys.Drain(100_000); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := systemDigest(sys, exec), systemGoldens[name]; got != want {
			t.Errorf("%s:\n got  %q\n want %q", name, got, want)
		}
	}
}
