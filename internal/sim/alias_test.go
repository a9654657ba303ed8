package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"nord/internal/fault"
	"nord/internal/noc"
)

// respell is one way of writing a config differently: set a knob.
type respell struct {
	name string
	set  func(*SynthConfig)
}

// aliasCase claims that base and base respelled are the same simulation
// (or, for a control, that they are not).
type aliasCase struct {
	base SynthConfig
	respell
}

func (a aliasCase) String() string {
	mode := ""
	if a.base.ForcedOff {
		mode = " forced_off"
	}
	return fmt.Sprintf("%v%s %s", a.base.Design, mode, a.name)
}

var (
	// Knobs only the NoRD ring machinery reads.
	ringKnobs = []respell{
		{"threshold_perf=3", func(c *SynthConfig) { c.ThresholdPerf = 3 }},
		{"threshold_power=3", func(c *SynthConfig) { c.ThresholdPower = 3 }},
		{"no_perf_centric", func(c *SynthConfig) { c.NoPerfCentric = true }},
		{"misroute_cap=1", func(c *SynthConfig) { c.MisrouteCap = 1 }},
		{"aggressive_bypass", func(c *SynthConfig) { c.AggressiveBypass = true }},
		{"dynamic_classify", func(c *SynthConfig) { c.DynamicClassify = true }},
	}
	// Knobs only a PG controller that can wake its router reads.
	wakeKnobs = []respell{
		{"gate_idle=6", func(c *SynthConfig) { c.GateIdleCycles = 6 }},
		{"wakeup_latency=9", func(c *SynthConfig) { c.WakeupLatency = 9 }},
	}
	// Zero-kept knobs written at the value their zero form selects, or
	// at another value that selects it.
	defaultSpelled = []respell{
		{"wakeup_latency=12", func(c *SynthConfig) { c.WakeupLatency = 12 }},
		{"threshold_perf=1", func(c *SynthConfig) { c.ThresholdPerf = 1 }},
		{"threshold_power=6", func(c *SynthConfig) { c.ThresholdPower = 6 }},
		{"misroute_cap=2", func(c *SynthConfig) { c.MisrouteCap = 2 }},
		{"misroute_cap=-5", func(c *SynthConfig) { c.MisrouteCap = -5 }},
	}
)

// aliasBase is the run every case respells: long enough to pass a
// DynamicClassify re-ranking (2048 cycles), loaded enough that NoRD
// routers wake, detour and gate off again.
func aliasBase(d noc.Design) SynthConfig {
	return SynthConfig{Design: d, Rate: 0.08, Warmup: 500, Measure: 3000, Seed: 11}
}

// aliasCases is every normalisation rule of fill, one case per (rule,
// design or mode it applies to).
func aliasCases() []aliasCase {
	var cases []aliasCase
	add := func(base SynthConfig, rs ...respell) {
		for _, r := range rs {
			cases = append(cases, aliasCase{base, r})
		}
	}
	for _, d := range []noc.Design{noc.ConvPG, noc.ConvPGOpt, noc.NoRD} {
		add(aliasBase(d), defaultSpelled[0])
	}
	add(aliasBase(noc.NoRD), defaultSpelled[1:]...)

	add(aliasBase(noc.NoPG), wakeKnobs...)
	add(aliasBase(noc.NoPG), respell{"forced_off", func(c *SynthConfig) { c.ForcedOff = true }})
	for _, d := range []noc.Design{noc.NoPG, noc.ConvPG, noc.ConvPGOpt} {
		add(aliasBase(d), ringKnobs...)
	}

	forced := aliasBase(noc.NoRD)
	forced.ForcedOff = true
	forced.Rate = 0.02 // the all-off ring saturates early (Figure 7)
	add(forced, wakeKnobs...)
	add(forced, ringKnobs[:3]...)

	cmesh := aliasBase(noc.NoRD)
	cmesh.Topology = "cmesh"
	add(cmesh,
		respell{`topology="concentrated"`, func(c *SynthConfig) { c.Topology = "concentrated" }},
		respell{`topology="concentrated_mesh"`, func(c *SynthConfig) { c.Topology = "concentrated_mesh" }})
	return cases
}

// liveCases are the controls: respellings of a knob the design does read.
// They must keep their own identity and run differently.
func liveCases() []aliasCase {
	forcedDyn := aliasBase(noc.NoRD)
	forcedDyn.ForcedOff, forcedDyn.DynamicClassify, forcedDyn.Rate = true, true, 0.02
	stuck := aliasBase(noc.ConvPG)
	stuck.WatchdogLimit = 1500 // a forced-off Conv_PG network deadlocks; fail fast
	return []aliasCase{
		{aliasBase(noc.ConvPG), wakeKnobs[0]},
		{aliasBase(noc.ConvPGOpt), wakeKnobs[1]},
		{aliasBase(noc.NoRD), wakeKnobs[0]},
		{aliasBase(noc.NoRD), ringKnobs[1]},
		{aliasBase(noc.NoRD), ringKnobs[2]},
		{aliasBase(noc.NoRD), ringKnobs[3]},
		{aliasBase(noc.NoRD), ringKnobs[4]},
		{aliasBase(noc.NoRD), ringKnobs[5]},
		{stuck, respell{"forced_off", func(c *SynthConfig) { c.ForcedOff = true }}},
		// Re-ranking rewrites the per-router class even when nothing can
		// wake, and the report tells classes apart by threshold.
		{forcedDyn, respell{"threshold_perf=6", func(c *SynthConfig) { c.ThresholdPerf = 6 }}},
	}
}

// runSpelled runs the filled base with the respelling written on top —
// what the kernel would see if fill did not fold it.
func runSpelled(a aliasCase, respelled bool) (Result, error) {
	c := a.base.Filled()
	if respelled {
		a.set(&c)
	}
	return runFilled(context.Background(), c, RunOptions{}, nil)
}

// TestAliasesRunIdentically is the proof behind every rule in fill: the
// two spellings of each case, run unfolded, produce DeepEqual Results
// (per-router reports and fault accounting included), with and without a
// fault schedule armed — and only then is it checked that fill gives both
// the one canonical form. The controls hold the other side: a knob the
// design reads keeps its own identity and its own result.
func TestAliasesRunIdentically(t *testing.T) {
	faults := &fault.Config{Seed: 5, CorruptLinks: 8, DropWakeups: 2}
	for _, a := range aliasCases() {
		for _, armed := range []*fault.Config{nil, faults} {
			a.base.Faults = armed
			name := a.String()
			if armed != nil {
				name += " +faults"
			}
			want, werr := runSpelled(a, false)
			got, gerr := runSpelled(a, true)
			if werr != nil || gerr != nil {
				t.Errorf("%s: runs failed: %v / %v", name, werr, gerr)
				continue
			}
			if want.PacketsDelivered == 0 {
				t.Errorf("%s: the base run delivered nothing; the comparison is vacuous", name)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: spellings run differently; fill must not fold them\n got %s\nwant %s", name, resultDigest(got), resultDigest(want))
			}
			re := a.base
			a.set(&re)
			if canon := a.base.Filled(); re.Filled() != canon {
				t.Errorf("%s: fill keeps the spellings apart:\n%+v\n%+v", name, re.Filled(), canon)
			} else if a.set(&canon); canon.Filled() != a.base.Filled() {
				t.Errorf("%s: respelling a filled config does not fill back onto it", name)
			}
		}
	}
	for _, a := range liveCases() {
		re := a.base
		a.set(&re)
		if re.Filled() == a.base.Filled() {
			t.Errorf("control %s: fill folded a live knob", a)
		}
		want, werr := runSpelled(a, false)
		got, gerr := runSpelled(a, true)
		if werr != nil {
			t.Errorf("control %s: base run failed: %v", a, werr)
		}
		if gerr == nil && reflect.DeepEqual(got, want) {
			t.Errorf("control %s: a live knob changed nothing; the control is vacuous", a)
		}
	}
}
