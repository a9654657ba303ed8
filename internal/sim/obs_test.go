package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"strconv"
	"testing"

	"nord/internal/noc"
	"nord/internal/obs"
)

func TestWarmupZeroValueVsSentinel(t *testing.T) {
	if got := (SynthConfig{}).Filled().Warmup; got != 10_000 {
		t.Errorf("synth zero-value Warmup filled to %d, want the 10000 default", got)
	}
	// The sentinel survives fill (so Filled is a fixed point and the
	// explicit-zero job keys apart from the default); the run clamps it.
	if got := (SynthConfig{Warmup: ZeroWarmup}).Filled().Warmup; got != ZeroWarmup {
		t.Errorf("synth Warmup: ZeroWarmup filled to %d, want the sentinel kept", got)
	}
	if got := (SynthConfig{Warmup: 123}).Filled().Warmup; got != 123 {
		t.Errorf("synth explicit Warmup filled to %d, want 123", got)
	}
	if got := (WorkloadConfig{}).Filled().Warmup; got != 5_000 {
		t.Errorf("workload zero-value Warmup filled to %d, want the 5000 default", got)
	}
	if got := (WorkloadConfig{Warmup: ZeroWarmup}).Filled().Warmup; got != ZeroWarmup {
		t.Errorf("workload Warmup: ZeroWarmup filled to %d, want the sentinel kept", got)
	}
	if got := (TraceConfig{Warmup: ZeroWarmup}).Filled().Warmup; got != 0 {
		t.Errorf("trace Warmup: ZeroWarmup filled to %d, want 0", got)
	}
}

// TestZeroWarmupRuns: an explicit zero-cycle warmup must actually start
// measurement at cycle 0 instead of silently running the default warmup.
func TestZeroWarmupRuns(t *testing.T) {
	r, err := runSynthetic(SynthConfig{
		Design: noc.NoPG, Pattern: "uniform", Rate: 0.05,
		Warmup: ZeroWarmup, Measure: 2_000, Seed: 1,
	})
	if err != nil {
		t.Fatalf("RunSynthetic: %v", err)
	}
	if r.Cycles != 2_000 {
		t.Fatalf("measured %d cycles, want exactly 2000 (no warmup)", r.Cycles)
	}
}

// TestCSVPrecisionRoundTrips pins the fix for the 'g'/8-significant-digit
// formatting that corrupted counts above 1e8.
func TestCSVPrecisionRoundTrips(t *testing.T) {
	const big = 123_456_789.0 // 9 significant digits
	r := Result{Design: noc.NoRD, Label: "x", Nodes: 16, AvgPacketLatency: big}
	rec := ResultCSVRecord(r)
	// Field 5 is avg_latency_cycles (see ResultCSVHeader).
	got, err := strconv.ParseFloat(rec[5], 64)
	if err != nil {
		t.Fatalf("parsing %q: %v", rec[5], err)
	}
	if got != big {
		t.Fatalf("avg_latency_cycles round-tripped to %v, want %v", got, big)
	}

}

// TestTracedSyntheticRun wires a tracer through RunSyntheticOpts and
// checks that the routers attribute every measured wakeup to a signal
// their design's wake rule can assert, that both exporters produce valid
// output, and that the trace is deterministic for a fixed seed.
func TestTracedSyntheticRun(t *testing.T) {
	for _, design := range []noc.Design{noc.NoRD, noc.ConvPG} {
		t.Run(design.String(), func(t *testing.T) {
			cfg := SynthConfig{
				Design: design, Pattern: "uniform", Rate: 0.02,
				Warmup: 1_000, Measure: 10_000, Seed: 7,
			}
			runOnce := func() (*obs.Tracer, Result) {
				tr := obs.New(obs.Config{ResidencyEvery: 512})
				r, err := RunSyntheticOpts(context.Background(), cfg, RunOptions{Tracer: tr})
				if err != nil {
					t.Fatalf("RunSyntheticOpts: %v", err)
				}
				return tr, r
			}
			tr, res := runOnce()
			if tr.Total() == 0 {
				t.Fatalf("tracer recorded no events over a gated run")
			}
			if res.Wakeups == 0 || res.GateOffs == 0 {
				t.Fatalf("%d wakeups / %d gate-offs, want both > 0", res.Wakeups, res.GateOffs)
			}
			var sum noc.RouterReport
			for _, rr := range res.Routers {
				sum.WakeSA += rr.WakeSA
				sum.WakeLocal += rr.WakeLocal
				sum.WakeVC += rr.WakeVC
				sum.WakeWatchdog += rr.WakeWatchdog
			}
			// No faults armed: NoRD wakes on the VC-request threshold
			// only; Conv_PG on a stalled neighbour's SA request or the
			// local node's injection, both of which this load exercises.
			if sum.WakeWatchdog != 0 || sum.WakeSA+sum.WakeLocal+sum.WakeVC != res.Wakeups {
				t.Errorf("wake causes do not add up to the %d wakeups: %+v", res.Wakeups, sum)
			}
			if design == noc.NoRD && sum.WakeVC != res.Wakeups {
				t.Errorf("non-NoRD wake causes on a NoRD run: %+v", sum)
			}
			if design == noc.ConvPG && (sum.WakeVC != 0 || sum.WakeSA == 0 || sum.WakeLocal == 0) {
				t.Errorf("Conv_PG wakes on SA requests and local injection, never the VC threshold: %+v", sum)
			}
			if len(tr.Residency()) == 0 {
				t.Errorf("no residency samples collected")
			}

			var chrome bytes.Buffer
			if err := tr.WriteChromeTrace(&chrome, res.Cycles); err != nil {
				t.Fatalf("WriteChromeTrace: %v", err)
			}
			var doc map[string]any
			if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
				t.Fatalf("chrome trace not valid JSON: %v", err)
			}
			var nd bytes.Buffer
			if err := tr.WriteNDJSON(&nd); err != nil {
				t.Fatalf("WriteNDJSON: %v", err)
			}

			tr2, _ := runOnce()
			var chrome2 bytes.Buffer
			if err := tr2.WriteChromeTrace(&chrome2, res.Cycles); err != nil {
				t.Fatalf("WriteChromeTrace (2nd run): %v", err)
			}
			if !bytes.Equal(chrome.Bytes(), chrome2.Bytes()) {
				t.Errorf("identical seeded runs produced different chrome traces")
			}
		})
	}
}

func TestWriteRouterCSV(t *testing.T) {
	r, err := runSynthetic(SynthConfig{
		Design: noc.ConvPG, Pattern: "uniform", Rate: 0.02,
		Warmup: 500, Measure: 5_000, Seed: 3,
	})
	if err != nil {
		t.Fatalf("RunSynthetic: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteRouterCSV(&buf, r); err != nil {
		t.Fatalf("WriteRouterCSV: %v", err)
	}
	lines := bytes.Count(buf.Bytes(), []byte("\n"))
	if lines != r.Nodes+1 {
		t.Fatalf("router CSV has %d lines, want %d (header + one per router)", lines, r.Nodes+1)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("router,x,y,idle_fraction,off_fraction,wakeups,gate_offs,mean_off_interval_cycles")) {
		t.Fatalf("unexpected header:\n%s", buf.String())
	}
}
