package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"nord/internal/fault"
	"nord/internal/noc"
	"nord/internal/obs"
)

// TestDeterminism pins the simulator's reproducibility: identical
// configurations and seeds produce bit-identical results, for synthetic
// and full-system runs alike. (Any map-iteration or scheduling
// nondeterminism that creeps in breaks this loudly.)
func TestDeterminism(t *testing.T) {
	synth := SynthConfig{Design: noc.NoRD, Rate: 0.07, Warmup: 2000, Measure: 10_000, Seed: 1234}
	a, err := runSynthetic(synth)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSynthetic(synth)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgPacketLatency != b.AvgPacketLatency || a.Wakeups != b.Wakeups ||
		a.Energy != b.Energy || a.PacketsDelivered != b.PacketsDelivered {
		t.Errorf("synthetic runs diverged:\n%+v\n%+v", a, b)
	}

	wl := WorkloadConfig{Design: noc.ConvPGOpt, Benchmark: "bodytrack", Scale: 0.03, Seed: 99}
	c, err := runWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	d, err := runWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	if c.ExecTime != d.ExecTime || c.Wakeups != d.Wakeups || c.Energy != d.Energy {
		t.Errorf("workload runs diverged: exec %d vs %d, wakeups %d vs %d",
			c.ExecTime, d.ExecTime, c.Wakeups, d.Wakeups)
	}
}

// resultDigest renders the integer fields of a Result: every one is an
// exact count, so the line is stable across hosts where a float is not.
func resultDigest(r Result) string {
	s := fmt.Sprintf("cyc=%d pkts=%d p50/95/99=%d/%d/%d wake=%d gate=%d mis=%d esc=%d exec=%d",
		r.Cycles, r.PacketsDelivered, r.LatencyP50, r.LatencyP95, r.LatencyP99,
		r.Wakeups, r.GateOffs, r.Misroutes, r.Escapes, r.ExecTime)
	if f := r.Fault; f != nil {
		s += fmt.Sprintf(" fault{inj=%v trig=%v corrupt=%d poison=%d retx=%d wd=%d lost=%d in/out/lost=%d/%d/%d}",
			f.Injected, f.Triggered, f.FlitsCorrupted, f.PacketsPoisoned, f.Retransmits,
			f.WatchdogWakeups, f.RoutersLost, f.PacketsInjected, f.PacketsDelivered, f.PacketsLost)
	}
	return s
}

// resultGoldens are the digests of the cells TestResultGoldens runs,
// captured at commit 0f9dea8 — before the run paths were folded into one
// harness — and unchanged since. They encode the loop-order quirks a
// refactor must keep: the injector ticks before the network steps, a
// workload whose cores all finish inside the warmup still measures one
// cycle (the done-in-warmup cell), recording runs no warmup, and only faulted
// synthetic runs drain. The four 8x8 NoRD rows (aggressive bypass with
// dynamic classification, forced-off, torus with every fault kind, and
// the tracer's bytes) and the No_PG and Conv_PG_OPT workload rows came
// later and are held to the same rule.
var resultGoldens = map[string]string{
	"loadsweep/4x4":                             "[No_PG 0.05 22.7369421 11.2061327 0.048953125 false \"\"][No_PG 0.2 23.9148593 20.4835053 0.20140625 false \"\"][Conv_PG_OPT 0.05 42.5902579 9.91936582 0.048484375 false \"\"][Conv_PG_OPT 0.2 29.8142228 20.6156328 0.200203125 false \"\"][NoRD 0.05 41.1578947 11.0115596 0.048578125 false \"\"][NoRD 0.2 26.8777111 21.6745056 0.20140625 false \"\"]",
	"powerseries/NoRD":                          "[1000 10.8546918 0.3908125 0.0516875][2000 13.6813399 0.2119375 0.064875][3000 12.5272618 0.3098125 0.059]",
	"powerseries/NoRD/zero-warmup":              "[0 12.0300331 0.31875 0.0591875][1000 10.8546918 0.3908125 0.0541875][2000 13.6813399 0.2119375 0.064875]",
	"record/dedup/No_PG":                        "cyc=20141 pkts=6119 p50/95/99=18/33/39 wake=0 gate=0 mis=0 esc=0 exec=20141 events=6119",
	"replay/dedup/NoRD":                         "cyc=19872 pkts=5967 p50/95/99=23/94/123 wake=678 gate=689 mis=3162 esc=948 exec=0",
	"synth/cmesh/Conv_PG":                       "cyc=3000 pkts=5058 p50/95/99=26/47/58 wake=248 gate=248 mis=0 esc=72 exec=0",
	"synth/cmesh/Conv_PG_OPT":                   "cyc=3000 pkts=5062 p50/95/99=26/44/54 wake=236 gate=236 mis=0 esc=51 exec=0",
	"synth/cmesh/NoRD":                          "cyc=3000 pkts=5071 p50/95/99=23/37/45 wake=7 gate=7 mis=68 esc=25 exec=0",
	"synth/cmesh/No_PG":                         "cyc=3000 pkts=5071 p50/95/99=23/37/42 wake=0 gate=0 mis=0 esc=22 exec=0",
	"synth/faulted":                             "cyc=4086 pkts=1092 p50/95/99=28/122/157 wake=117 gate=120 mis=738 esc=244 exec=0 fault{inj=[8 2 0 1] trig=[7 2 0 1] corrupt=7 poison=7 retx=7 wd=0 lost=1 in/out/lost=1330/1330/0}",
	"synth/mesh/Conv_PG":                        "cyc=3000 pkts=1269 p50/95/99=38/72/89 wake=696 gate=695 mis=0 esc=10 exec=0",
	"synth/mesh/Conv_PG_OPT":                    "cyc=3000 pkts=1274 p50/95/99=35/68/78 wake=733 gate=731 mis=0 esc=9 exec=0",
	"synth/mesh/NoRD/aggressive-dynamic":        "cyc=4000 pkts=8409 p50/95/99=37/71/378 wake=133 gate=134 mis=1100 esc=276 exec=0",
	"synth/mesh/NoRD/forced-off":                "cyc=4000 pkts=263 p50/95/99=701/2477/3073 wake=0 gate=0 mis=240 esc=327 exec=0",
	"synth/torus/NoRD/all-faults":               "cyc=3306 pkts=6488 p50/95/99=32/55/359 wake=88 gate=140 mis=1339 esc=170 exec=0 fault{inj=[24 2 1 1] trig=[23 0 1 1] corrupt=23 poison=23 retx=23 wd=0 lost=1 in/out/lost=8600/8600/0}",
	"trace/NoRD/aggressive":                     "cyc=4000 pkts=8319 p50/95/99=37/75/386 wake=114 gate=116 mis=1219 esc=327 exec=0 chrome=8b647eda6e02a97791967a84ea48d0dc9e29b3712ec2e5a6562e331ff6369f82 ndjson=f606b3c06293eb975fc0d2614d81c212605e5b104f2655a1d820bfb99014dbaa",
	"synth/mesh/NoRD":                           "cyc=3000 pkts=1271 p50/95/99=26/105/134 wake=86 gate=85 mis=544 esc=142 exec=0",
	"synth/mesh/No_PG":                          "cyc=3000 pkts=1276 p50/95/99=22/36/41 wake=0 gate=0 mis=0 esc=1 exec=0",
	"synth/torus/Conv_PG":                       "cyc=3000 pkts=1275 p50/95/99=35/67/80 wake=754 gate=752 mis=0 esc=66 exec=0",
	"synth/torus/Conv_PG_OPT":                   "cyc=3000 pkts=1272 p50/95/99=34/61/71 wake=780 gate=778 mis=0 esc=52 exec=0",
	"synth/torus/NoRD":                          "cyc=3000 pkts=1272 p50/95/99=24/85/113 wake=93 gate=94 mis=780 esc=119 exec=0",
	"synth/torus/No_PG":                         "cyc=3000 pkts=1278 p50/95/99=21/29/32 wake=0 gate=0 mis=0 esc=3 exec=0",
	"workload/canneal/NoRD":                     "cyc=82152 pkts=23881 p50/95/99=24/98/126 wake=3017 gate=3025 mis=13916 esc=4419 exec=87152",
	"workload/x264/NoRD":                        "cyc=129413 pkts=69486 p50/95/99=23/92/122 wake=3598 gate=3604 mis=25656 esc=7540 exec=134413",
	"workload/blackscholes/NoRD":                "cyc=9951 pkts=1740 p50/95/99=26/93/116 wake=409 gate=416 mis=1340 esc=431 exec=14951",
	"workload/dedup/No_PG":                      "cyc=24024 pkts=8460 p50/95/99=18/32/38 wake=0 gate=0 mis=0 esc=0 exec=29024",
	"workload/ferret/Conv_PG_OPT":               "cyc=23372 pkts=5734 p50/95/99=39/75/94 wake=5497 gate=5504 mis=0 esc=15 exec=28372",
	"workload/swaptions/Conv_PG":                "cyc=5283 pkts=290 p50/95/99=47/98/125 wake=512 gate=520 mis=0 esc=0 exec=10283",
	"workload/swaptions/Conv_PG/done-in-warmup": "cyc=1 pkts=0 p50/95/99=0/0/0 wake=0 gate=0 mis=0 esc=0 exec=3665",
}

func TestResultGoldens(t *testing.T) {
	got := map[string]string{}
	note := func(name string, r Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = resultDigest(r)
	}
	for _, topo := range []string{"mesh", "torus", "cmesh"} {
		for _, d := range noc.Designs() {
			r, err := runSynthetic(SynthConfig{
				Design: d, Topology: topo, Rate: 0.08, Warmup: 500, Measure: 3000, Seed: 7,
			})
			note(fmt.Sprintf("synth/%s/%v", topo, d), r, err)
		}
	}
	r, err := runSynthetic(SynthConfig{
		Design: noc.NoRD, Rate: 0.05, Warmup: 1000, Measure: 4000, Seed: 2,
		Faults: &fault.Config{Seed: 5, HardFails: 1, CorruptLinks: 8, DropWakeups: 2},
	})
	note("synth/faulted", r, err)

	// NoRD's optional mechanisms and its fault recovery on the torus, on
	// 8x8 at the sweep points the kernel's determinism checks used.
	nord8 := func(rate float64, measure int, seed int64) SynthConfig {
		return SynthConfig{Design: noc.NoRD, Width: 8, Height: 8, Rate: rate, Warmup: 1000, Measure: measure, Seed: seed}
	}
	c := nord8(0.10, 4000, 7)
	c.AggressiveBypass, c.DynamicClassify = true, true
	r, err = runSynthetic(c)
	note("synth/mesh/NoRD/aggressive-dynamic", r, err)
	c = nord8(0.05, 4000, 7)
	c.ForcedOff = true
	r, err = runSynthetic(c)
	note("synth/mesh/NoRD/forced-off", r, err)
	c = nord8(0.10, 3000, 13)
	c.Topology = "torus"
	c.Faults = &fault.Config{Seed: 17, Horizon: 3500, CorruptLinks: 24, DropWakeups: 2, StuckOff: 1, HardFails: 1}
	r, err = runSynthetic(c)
	note("synth/torus/NoRD/all-faults", r, err)

	// The tracer's rendered bytes: the Chrome trace and the NDJSON dump,
	// including the subset the bypass-hop sampling counter picks.
	sink := obs.New(obs.Config{SampleEvery: 64, ResidencyEvery: 256})
	r, err = RunSyntheticOpts(context.Background(), SynthConfig{
		Design: noc.NoRD, Width: 8, Height: 8, AggressiveBypass: true,
		Rate: 0.10, Warmup: ZeroWarmup, Measure: 4000, Seed: 3,
	}, RunOptions{Tracer: sink})
	note("trace/NoRD/aggressive", r, err)
	var chrome, ndjson bytes.Buffer
	if err := sink.WriteChromeTrace(&chrome, r.Cycles); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteNDJSON(&ndjson); err != nil {
		t.Fatal(err)
	}
	got["trace/NoRD/aggressive"] += fmt.Sprintf(" chrome=%x ndjson=%x", sha256.Sum256(chrome.Bytes()), sha256.Sum256(ndjson.Bytes()))

	r, err = runWorkload(WorkloadConfig{Design: noc.NoRD, Benchmark: "blackscholes", Scale: 0.05, Seed: 4})
	note("workload/blackscholes/NoRD", r, err)
	r, err = runWorkload(WorkloadConfig{Design: noc.ConvPG, Benchmark: "swaptions", Scale: 0.01, Seed: 2})
	note("workload/swaptions/Conv_PG", r, err)
	r, err = runWorkload(WorkloadConfig{Design: noc.ConvPG, Benchmark: "swaptions", Scale: 0.002, Seed: 2})
	note("workload/swaptions/Conv_PG/done-in-warmup", r, err)
	// The two cells above barely evict; these two replace thousands of
	// L1 and L2 lines, pinning the caches' LRU victim choice.
	for _, bench := range []string{"canneal", "x264"} {
		r, err = runWorkload(WorkloadConfig{Design: noc.NoRD, Benchmark: bench, Scale: 0.05, Seed: 1})
		note("workload/"+bench+"/NoRD", r, err)
	}

	// The two designs no cell above runs under full-system traffic.
	r, err = runWorkload(WorkloadConfig{Design: noc.NoPG, Benchmark: "dedup", Scale: 0.03, Seed: 3})
	note("workload/dedup/No_PG", r, err)
	r, err = runWorkload(WorkloadConfig{Design: noc.ConvPGOpt, Benchmark: "ferret", Scale: 0.03, Seed: 5})
	note("workload/ferret/Conv_PG_OPT", r, err)

	tr, r, err := RecordWorkloadTrace(WorkloadConfig{Design: noc.NoPG, Benchmark: "dedup", Scale: 0.02, Seed: 7})
	note("record/dedup/No_PG", r, err)
	got["record/dedup/No_PG"] += fmt.Sprintf(" events=%d", len(tr.Events))
	r, err = ReplayTrace(TraceConfig{Design: noc.NoRD, Warmup: 300}, tr)
	note("replay/dedup/NoRD", r, err)

	var b strings.Builder
	for name, warmup := range map[string]int{"powerseries/NoRD": 1000, "powerseries/NoRD/zero-warmup": ZeroWarmup} {
		samples, r, err := PowerTimeSeries(context.Background(), SynthConfig{
			Design: noc.NoRD, Rate: 0.06, Warmup: warmup, Measure: 3000, Seed: 9,
		}, RunOptions{}, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cycles != 3000 {
			t.Errorf("%s: result covers %d measured cycles, want 3000", name, r.Cycles)
		}
		b.Reset()
		for _, s := range samples {
			fmt.Fprintf(&b, "[%d %.9g %.9g %.9g]", s.CycleStart, s.PowerW, s.OffFraction, s.Throughput)
		}
		got[name] = b.String()
	}

	pts, err := LoadSweep(context.Background(), SweepConfig{Rates: []float64{0.05, 0.20}, Measure: 4000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	for _, p := range pts {
		fmt.Fprintf(&b, "[%v %g %.9g %.9g %.9g %v %q]", p.Design, p.Rate, p.AvgLatency, p.PowerW, p.Throughput, p.Saturated, p.Err)
	}
	got["loadsweep/4x4"] = b.String()

	for name, g := range got {
		if want := resultGoldens[name]; g != want {
			t.Errorf("%s:\n got  %q\n want %q", name, g, want)
		}
	}
	if len(got) != len(resultGoldens) {
		t.Errorf("ran %d cells, %d goldens", len(got), len(resultGoldens))
	}
}
