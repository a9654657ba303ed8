package sim

import (
	"context"
	"reflect"
	"testing"

	"nord/internal/noc"
)

// TestFilledIsIdempotent: Filled is a fixed point for every config kind,
// and running a config equals running its filled form — for the default
// warmup (0), the explicit-zero sentinel and a plain count. serve hashes
// Filled() and the runner then fills again; when fill mapped ZeroWarmup
// to 0 and 0 to the default, an explicit "no warmup" job silently ran
// the default warmup under the explicit-zero key.
func TestFilledIsIdempotent(t *testing.T) {
	tr, _, err := RecordWorkloadTrace(WorkloadConfig{Design: noc.NoPG, Benchmark: "x264", Scale: 0.02, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, warmup := range []int{0, ZeroWarmup, 100} {
		synth := SynthConfig{Design: noc.NoRD, Rate: 0.05, Warmup: warmup, Measure: 2000, Seed: 1}
		if f := synth.Filled(); f.Filled() != f {
			t.Errorf("warmup %d: SynthConfig.Filled is not a fixed point:\n%+v\n%+v", warmup, f, f.Filled())
		}
		a, errA := runSynthetic(synth)
		b, errB := runSynthetic(synth.Filled())
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if resultDigest(a) != resultDigest(b) {
			t.Errorf("warmup %d: synthetic run of c and c.Filled() differ:\n%s\n%s", warmup, resultDigest(a), resultDigest(b))
		}

		wl := WorkloadConfig{Design: noc.NoRD, Benchmark: "x264", Scale: 0.02, Warmup: warmup, Seed: 1}
		if f := wl.Filled(); f.Filled() != f {
			t.Errorf("warmup %d: WorkloadConfig.Filled is not a fixed point:\n%+v\n%+v", warmup, f, f.Filled())
		}
		a, errA = runWorkload(wl)
		b, errB = runWorkload(wl.Filled())
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if resultDigest(a) != resultDigest(b) {
			t.Errorf("warmup %d: workload run of c and c.Filled() differ:\n%s\n%s", warmup, resultDigest(a), resultDigest(b))
		}

		tc := TraceConfig{Design: noc.ConvPG, Path: "mem", Warmup: warmup, Seed: 1}
		if f := tc.Filled(); f.Filled() != f {
			t.Errorf("warmup %d: TraceConfig.Filled is not a fixed point:\n%+v\n%+v", warmup, f, f.Filled())
		}
		a, errA = ReplayTrace(tc, tr)
		b, errB = ReplayTrace(tc.Filled(), tr)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if resultDigest(a) != resultDigest(b) {
			t.Errorf("warmup %d: replay of c and c.Filled() differ:\n%s\n%s", warmup, resultDigest(a), resultDigest(b))
		}
	}

	// Explicit zero and the default are different experiments.
	zero, _ := runSynthetic(SynthConfig{Design: noc.NoRD, Rate: 0.05, Warmup: ZeroWarmup, Measure: 2000, Seed: 1}.Filled())
	def, _ := runSynthetic(SynthConfig{Design: noc.NoRD, Rate: 0.05, Measure: 2000, Seed: 1}.Filled())
	if resultDigest(zero) == resultDigest(def) {
		t.Errorf("a filled ZeroWarmup config ran the default warmup: %s", resultDigest(zero))
	}

	sw := SweepConfig{Rates: []float64{0.02, 0.10}, Measure: 1500, Seed: 5}
	if f := sw.Filled(); !reflect.DeepEqual(f.Filled(), f) {
		t.Errorf("SweepConfig.Filled is not a fixed point:\n%+v\n%+v", f, f.Filled())
	}
	pa, errA := LoadSweep(context.Background(), sw)
	pb, errB := LoadSweep(context.Background(), sw.Filled())
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !reflect.DeepEqual(pa, pb) {
		t.Errorf("sweep of c and c.Filled() differ:\n%+v\n%+v", pa, pb)
	}
}

// TestBadGridFailsBeforePlanner: a network noc.New would refuse is
// refused before the planner runs — a 300x4 NoRD grid used to start a
// cold 1200-node search (minutes) only to be rejected afterwards.
func TestBadGridFailsBeforePlanner(t *testing.T) {
	before := perfSearches.Load()
	for _, c := range []SynthConfig{
		{Design: noc.NoRD, Width: noc.MaxGridDim + 44, Height: 4},
		{Design: noc.NoRD, Width: 12, Height: 12, VCsPerClass: 2},
		{Design: noc.NoRD, Width: 12, Height: 12, VCsPerClass: noc.MaxVCsPerPort + 1},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate accepted %dx%d with %d VCs", c.Width, c.Height, c.VCsPerClass)
		}
		if _, err := runSynthetic(c); err == nil {
			t.Errorf("run accepted %dx%d with %d VCs", c.Width, c.Height, c.VCsPerClass)
		}
	}
	if n := perfSearches.Load() - before; n != 0 {
		t.Errorf("%d planner searches ran for configs noc.New refuses", n)
	}
}
