package sim

import (
	"context"
	"errors"
	"testing"

	"nord/internal/noc"
	"nord/internal/stats"
)

// TestRunSyntheticCancelBounded proves cooperative cancellation is
// bounded: after ctx is canceled, the tick loop stops within checkEvery
// cycles (the context poll interval), not at the end of the run.
func TestRunSyntheticCancelBounded(t *testing.T) {
	const (
		warmup   = 500
		measure  = 2_000_000 // far more than the test should ever simulate
		cancelAt = 2048      // network cycle at which the callback cancels
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var canceledAt uint64
	res, err := RunSyntheticOpts(ctx, SynthConfig{
		Design: noc.NoRD, Width: 4, Height: 4,
		Pattern: "uniform", Rate: 0.05,
		Warmup: warmup, Measure: measure, Seed: 1,
	}, RunOptions{
		Progress: func(p stats.Progress) {
			if canceledAt == 0 && p.Cycle >= cancelAt {
				canceledAt = p.Cycle
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if canceledAt == 0 {
		t.Fatal("progress callback never fired")
	}
	if res.Err == "" {
		t.Fatal("partial result did not record the cancellation in Err")
	}
	// res.Cycles counts measured cycles; the loop may tick at most
	// checkEvery more cycles past the cancel point before the next poll.
	limit := canceledAt - warmup + checkEvery
	if res.Cycles > limit {
		t.Fatalf("loop ran %d measured cycles after cancel at %d; bound is %d",
			res.Cycles, canceledAt, limit)
	}
	if res.Cycles == 0 {
		t.Fatal("expected partial statistics from the canceled run")
	}
}

// TestRunSyntheticPreCanceled checks an already-canceled context stops
// the run almost immediately.
func TestRunSyntheticPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunSyntheticOpts(ctx, SynthConfig{
		Design: noc.NoPG, Width: 4, Height: 4,
		Pattern: "uniform", Rate: 0.05,
		Warmup: 10_000, Measure: 1_000_000, Seed: 1,
	}, RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res.Cycles > 0 {
		t.Fatalf("pre-canceled run measured %d cycles", res.Cycles)
	}
}

// TestRunWorkloadCancel checks the full-system runner honours ctx too.
func TestRunWorkloadCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	canceled := false
	_, err := RunWorkloadOpts(ctx, WorkloadConfig{
		Design: noc.NoRD, Benchmark: "x264", Scale: 0.5, Seed: 1,
	}, RunOptions{
		Progress: func(p stats.Progress) {
			if !canceled && p.Cycle >= 4096 {
				canceled = true
				cancel()
			}
		},
	})
	if !canceled {
		// Workload finished before the cancel point; nothing to assert.
		t.Skip("workload too short to cancel mid-run")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestRunWorkloadPreCanceled: the full-system warmup polls the context
// like every other phase, so a job canceled before it starts stops within
// checkEvery cycles instead of burning through the warmup first.
func TestRunWorkloadPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var last uint64
	res, err := RunWorkloadOpts(ctx, WorkloadConfig{
		Design: noc.NoRD, Benchmark: "x264", Scale: 0.5, Seed: 1,
	}, RunOptions{
		Progress: func(p stats.Progress) { last = p.Cycle },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if want := "sim: run canceled at cycle 1024: context canceled"; err.Error() != want || res.Err != want {
		t.Fatalf("cancel message: err %q, Result.Err %q, want %q", err, res.Err, want)
	}
	if last > checkEvery {
		t.Fatalf("pre-canceled workload ran to cycle %d; bound is %d", last, checkEvery)
	}
	if res.Cycles > 0 {
		t.Fatalf("pre-canceled run measured %d cycles", res.Cycles)
	}
}

// TestWarmupProgressPrecedesMeasure: every run kind reports its warmup
// as a "warmup" phase before the first "measure" snapshot. The warmup
// outlasts one progress period, so a snapshot falls inside it.
func TestWarmupProgressPrecedesMeasure(t *testing.T) {
	const warmup = progressEvery + 1000
	tr, _, err := RecordWorkloadTrace(WorkloadConfig{Design: noc.NoPG, Benchmark: "swaptions", Scale: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]func(RunOptions) error{
		"synthetic": func(o RunOptions) error {
			_, err := RunSyntheticOpts(context.Background(), SynthConfig{Design: noc.NoRD, Rate: 0.05, Warmup: warmup, Measure: 1000, Seed: 1}, o)
			return err
		},
		"workload": func(o RunOptions) error {
			_, err := RunWorkloadOpts(context.Background(), WorkloadConfig{Design: noc.NoRD, Benchmark: "swaptions", Scale: 0.02, Warmup: warmup, Seed: 1}, o)
			return err
		},
		"trace": func(o RunOptions) error {
			_, err := ReplayTraceOpts(context.Background(), TraceConfig{Design: noc.NoRD, Warmup: warmup}, tr, o)
			return err
		},
	}
	for name, run := range kinds {
		var phases []string
		err := run(RunOptions{Progress: func(p stats.Progress) {
			if len(phases) == 0 || phases[len(phases)-1] != p.Phase {
				phases = append(phases, p.Phase)
			}
		}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(phases) != 2 || phases[0] != "warmup" || phases[1] != "measure" {
			t.Errorf("%s: progress phases %v, want [warmup measure]", name, phases)
		}
	}
}

// TestParallelLoadSweepCanceled checks the sweep propagates cancellation.
func TestParallelLoadSweepCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := LoadSweep(ctx, SweepConfig{Rates: []float64{0.02, 0.05}, Measure: 20_000, Seed: 1})
	if err == nil {
		t.Fatal("canceled sweep returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in chain, got %v", err)
	}
}
