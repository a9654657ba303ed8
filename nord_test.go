package nord_test

import (
	"path/filepath"
	"testing"

	"nord"
	"nord/internal/noc"
)

// TestDefaultConfigMatchesPaperTable1 pins the library defaults to the
// paper's Table 1 simulation parameters.
func TestDefaultConfigMatchesPaperTable1(t *testing.T) {
	p := noc.DefaultParams(noc.NoRD)
	if p.Width != 4 || p.Height != 4 {
		t.Errorf("default mesh %dx%d, want 4x4", p.Width, p.Height)
	}
	if p.VCsPerClass != 4 {
		t.Errorf("VCs per class %d, want 4", p.VCsPerClass)
	}
	if p.BufferDepth != 5 {
		t.Errorf("input buffer depth %d, want 5 flits", p.BufferDepth)
	}
	if p.WakeupLatency != 12 {
		t.Errorf("wakeup latency %d, want 12 cycles (4ns at 3GHz)", p.WakeupLatency)
	}
	if noc.EarlyWakeupCycles != 3 {
		t.Errorf("early wakeup %d, want 3 hidden cycles", noc.EarlyWakeupCycles)
	}
	if noc.WakeupWindow != 10 {
		t.Errorf("wakeup window %d, want 10 cycles", noc.WakeupWindow)
	}
	if p.ThresholdPerf != 1 {
		t.Errorf("performance-centric threshold %d, want 1", p.ThresholdPerf)
	}
}

func TestPublicAPISynthetic(t *testing.T) {
	res, err := nord.RunSynthetic(nord.SynthConfig{
		Design: nord.NoRD, Rate: 0.05, Warmup: 2000, Measure: 10_000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Design != nord.NoRD || res.AvgPacketLatency <= 0 {
		t.Errorf("unexpected result: %+v", res)
	}
}

func TestPublicAPIWorkload(t *testing.T) {
	res, err := nord.RunWorkload(nord.WorkloadConfig{
		Design: nord.ConvPGOpt, Benchmark: "bodytrack", Scale: 0.02, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTime == 0 {
		t.Error("no execution time measured")
	}
}

// TestPublicAPITrace: RunTrace is LoadTrace + ReplayTrace, and a missing
// file is an error rather than an empty replay.
func TestPublicAPITrace(t *testing.T) {
	tr, _, err := nord.RecordWorkloadTrace(nord.WorkloadConfig{
		Design: nord.NoPG, Benchmark: "swaptions", Scale: 0.01, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "swaptions.trace.gz")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	c := nord.TraceConfig{Design: nord.NoRD, Path: path}
	fromFile, err := nord.RunTrace(c)
	if err != nil {
		t.Fatal(err)
	}
	inMemory, err := nord.ReplayTrace(c, tr)
	if err != nil {
		t.Fatal(err)
	}
	if fromFile.PacketsDelivered == 0 || fromFile.PacketsDelivered != inMemory.PacketsDelivered || fromFile.Cycles != inMemory.Cycles {
		t.Errorf("replay from file %d packets / %d cycles, in memory %d / %d",
			fromFile.PacketsDelivered, fromFile.Cycles, inMemory.PacketsDelivered, inMemory.Cycles)
	}
	if _, err := nord.RunTrace(nord.TraceConfig{Design: nord.NoRD, Path: "/definitely/missing"}); err == nil {
		t.Error("missing trace file should fail")
	}
}

func TestPublicAPIHelpers(t *testing.T) {
	if len(nord.Benchmarks()) != 10 {
		t.Error("want 10 benchmarks")
	}
	if len(nord.Designs()) != 4 {
		t.Error("want 4 designs")
	}
	set, err := nord.PerfCentricSet(4, 4)
	if err != nil || len(set) != 6 {
		t.Errorf("perf-centric set %v (%v)", set, err)
	}
	m, err := nord.NewPowerModel(nord.DefaultTech())
	if err != nil {
		t.Fatal(err)
	}
	if m.RouterStaticW() <= 0 {
		t.Error("power model broken")
	}
	if nord.DefaultTech().NodeNM != 45 {
		t.Error("default tech should be 45nm")
	}
}
