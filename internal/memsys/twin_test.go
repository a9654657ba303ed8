package memsys

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"nord/internal/noc"
	"nord/internal/stats"
)

// fullScanStep is the reference twin of the event-driven Step: it puts
// every component in its stepping set before the cycle, so the cycle
// steps every home bank, L1, memory controller and core and visits every
// outbound queue, as Step did before it kept the sets.
func fullScanStep(s *System) error {
	for node := range s.cores {
		s.homeQ.Add(node)
		s.l1Q.Add(node)
		s.running.Add(node)
		s.outQs.Add(node)
		if s.mems[node] != nil {
			s.memQ.Add(node)
		}
	}
	return s.Step()
}

// systemCell is one full-system run that the event-driven System and its
// full-scan twin are compared on: Run to completion or maxCycles, then
// Drain.
type systemCell struct {
	design    noc.Design
	prof      Profile
	seed      int64
	maxCycles uint64
}

// systemOut is everything the two must agree on.
type systemOut struct {
	Collector     *stats.NoC
	Routers       []noc.RouterReport
	Msgs          map[MsgType]uint64
	Reads, Writes uint64
	L1HitRate     float64
	Finish, Instr []uint64
	Exec          uint64
	RunErr        error
	DrainErr      error
}

// drainBudget bounds the Drain after the run.
const drainBudget = 200_000

// run drives the cell with Step, or with fullScanStep when fullScan is
// set, through the loops of System.Run and System.Drain.
func (c systemCell) run(t testing.TB, fullScan bool) systemOut {
	sys := newSys(t, c.design, c.prof, c.seed)
	step := sys.Step
	if fullScan {
		step = func() error { return fullScanStep(sys) }
	}
	sys.net.BeginMeasurement()
	var out systemOut
	out.RunErr = fmt.Errorf("memsys: workload %q did not finish within %d cycles", c.prof.Name, c.maxCycles)
	for sys.now() < c.maxCycles {
		if err := step(); err != nil {
			out.RunErr = err
			break
		}
		if sys.Done() {
			out.Exec, out.RunErr = sys.now(), nil
			break
		}
	}
	out.DrainErr = fmt.Errorf("memsys: protocol traffic did not drain within %d cycles", drainBudget)
	for i := 0; i < drainBudget; i++ {
		if sys.quiescent() {
			out.DrainErr = nil
			break
		}
		if err := step(); err != nil {
			out.DrainErr = err
			break
		}
	}
	sys.net.FinishMeasurement()
	out.Collector = sys.net.Collector()
	out.Routers = sys.net.PerRouterReports()
	out.Msgs = sys.MsgCounts()
	out.Reads, out.Writes = sys.MemAccesses()
	out.L1HitRate = sys.L1HitRate()
	for _, co := range sys.cores {
		out.Finish = append(out.Finish, co.finishCycle)
		out.Instr = append(out.Instr, co.instrDone)
	}
	return out
}

// compare runs the cell both ways and reports every output on which they
// differ. A run that finished must drain cleanly on both.
func (c systemCell) compare(t *testing.T) {
	t.Helper()
	ev, full := c.run(t, false), c.run(t, true)
	v, f := reflect.ValueOf(ev), reflect.ValueOf(full)
	for i := 0; i < v.NumField(); i++ {
		if !reflect.DeepEqual(v.Field(i).Interface(), f.Field(i).Interface()) {
			t.Errorf("%s diverges:\nevent-driven: %+v\nfull scan:    %+v",
				v.Type().Field(i).Name, v.Field(i).Interface(), f.Field(i).Interface())
		}
	}
	if ev.RunErr == nil && ev.DrainErr != nil {
		t.Errorf("finished run did not drain: %v", ev.DrainErr)
	}
}

// TestEventDrivenMatchesFullScan runs every profile, each on one design in
// turn, on the event-driven Step and on its full-scan twin, and requires
// identical results: the network's statistics, per-router reports,
// message counts, DRAM accesses, L1 hit rate, each core's finish cycle
// and retired instructions, the run's error and a clean drain. The last
// cell stops at its cycle limit with cores still running.
func TestEventDrivenMatchesFullScan(t *testing.T) {
	designs := noc.Designs()
	for i, prof := range Profiles() {
		prof.InstrPerCore = 1500
		c := systemCell{design: designs[i%len(designs)], prof: prof, seed: int64(i + 1), maxCycles: 200_000}
		if i == len(Profiles())-1 {
			c.maxCycles = 3_000
		}
		t.Run(fmt.Sprintf("%s/%v", prof.Name, c.design), c.compare)
	}
}

// FuzzSystem draws a profile, a design, a seed, an instruction quota and a
// cycle limit, and requires the event-driven System to match its
// full-scan twin on every output (see TestEventDrivenMatchesFullScan).
func FuzzSystem(f *testing.F) {
	f.Fuzz(func(t *testing.T, profile, design uint8, seed int64, instr, maxCycles uint16) {
		profs := Profiles()
		prof := profs[int(profile)%len(profs)]
		prof.InstrPerCore = 1 + uint64(instr%2000)
		designs := noc.Designs()
		systemCell{
			design:    designs[int(design)%len(designs)],
			prof:      prof,
			seed:      seed,
			maxCycles: 1 + uint64(maxCycles%40_000),
		}.compare(t)
	})
}

// BenchmarkSystemStep times the full-system cycles of a 4x4 NoRD x264
// cell (the golden cell's 3000 instructions per core; a finished system
// is rebuilt off the clock) and splits each cycle into the memory
// system's share and noc.Step's.
func BenchmarkSystemStep(b *testing.B) {
	prof, _ := ProfileByName("x264")
	prof.InstrPerCore = 3000
	// clock is what one clock read costs, in ns.
	const reads = 1 << 16
	epoch := time.Now()
	for i := 0; i < reads; i++ {
		_ = time.Since(epoch)
	}
	clock := int64(time.Since(epoch)) / reads

	sys := newSys(b, noc.NoRD, prof, 1)
	var memNs, nocNs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sys.Done() {
			b.StopTimer()
			sys = newSys(b, noc.NoRD, prof, 1)
			b.StartTimer()
		}
		t0 := time.Since(epoch)
		sys.advance()
		t1 := time.Since(epoch)
		if err := sys.net.Step(); err != nil {
			b.Fatal(err)
		}
		memNs += int64(t1-t0) - clock
		nocNs += int64(time.Since(epoch)-t1) - clock
	}
	b.StopTimer()
	b.ReportMetric(float64(max(memNs, 0))/float64(b.N), "memsys-ns/cycle")
	b.ReportMetric(float64(max(nocNs, 0))/float64(b.N), "noc-ns/cycle")
}
