package sim

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nord/internal/noc"
	"nord/internal/trace"
)

// TestParallelLoadSweepMatchesSerial: the pooled sweep returns, in
// (design, rate) order, exactly what running each cell on its own does —
// at one worker and at several.
func TestParallelLoadSweepMatchesSerial(t *testing.T) {
	c := SweepConfig{Rates: []float64{0.05, 0.20}, Measure: 8000, Seed: 5}
	var want []SweepPoint
	for _, d := range SweepDesigns() {
		for _, rate := range c.Rates {
			r, err := runSynthetic(SynthConfig{Design: d, Width: 4, Height: 4, Pattern: "uniform", Rate: rate, Measure: c.Measure, Seed: c.Seed})
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, SweepPoint{
				Design: d, Rate: rate, AvgLatency: r.AvgPacketLatency, PowerW: r.AvgPowerW,
				Throughput: r.Throughput, Saturated: r.AvgPacketLatency > satLatency,
			})
		}
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got, err := LoadSweep(context.Background(), c)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS=%d: %d points, want %d", procs, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("GOMAXPROCS=%d point %d: %+v, want %+v (the pool broke determinism)", procs, i, got[i], want[i])
			}
		}
	}
}

// TestPoolOrderAndBounds: results come back by index, never more than
// GOMAXPROCS cells run at once, one worker runs the cells in index order,
// a panicking cell is contained, and cells that have not started when the
// context is canceled report its cause.
func TestPoolOrderAndBounds(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		var running, peak atomic.Int32
		var order []int
		var mu sync.Mutex
		res, errs := RunCells(context.Background(), 9, func(_ context.Context, i int) (Result, error) {
			n := running.Add(1)
			defer running.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			if i == 3 {
				panic("cell 3")
			}
			time.Sleep(time.Millisecond)
			return Result{Cycles: uint64(i)}, nil
		})
		runtime.GOMAXPROCS(prev)
		for i := range res {
			if i == 3 {
				if !IsRuntimeFailure(errs[i]) || res[i].Err == "" {
					t.Errorf("GOMAXPROCS=%d: panicking cell reported %v / %q", procs, errs[i], res[i].Err)
				}
			} else if errs[i] != nil || res[i].Cycles != uint64(i) {
				t.Errorf("GOMAXPROCS=%d cell %d: %+v, %v", procs, i, res[i].Cycles, errs[i])
			}
		}
		if int(peak.Load()) > procs {
			t.Errorf("GOMAXPROCS=%d: %d cells ran at once", procs, peak.Load())
		}
		if procs == 1 && !sort.IntsAreSorted(order) {
			t.Errorf("one worker ran cells out of order: %v", order)
		}
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("stop")
	_, errs := RunCells(ctx, 6, func(_ context.Context, i int) (Result, error) {
		cancel(cause)
		return Result{}, nil
	})
	if errs[5] != cause {
		t.Errorf("cell after cancel: %v, want the cause", errs[5])
	}
}

func TestParallelLoadSweepError(t *testing.T) {
	if _, err := LoadSweep(context.Background(), SweepConfig{Pattern: "bogus", Rates: []float64{0.01}, Measure: 100, Seed: 1}); err == nil {
		t.Error("bad pattern should propagate")
	}
}

func TestCSVWriters(t *testing.T) {
	rec := ResultCSVRecord(Result{Design: noc.NoRD, Label: "x", Nodes: 16})
	if len(rec) != len(ResultCSVHeader()) {
		t.Error("result CSV record/header mismatch")
	}
}

func TestTraceRecordReplayRoundTrip(t *testing.T) {
	tr, res, err := RecordWorkloadTrace(WorkloadConfig{Design: noc.NoPG, Benchmark: "swaptions", Scale: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 || res.ExecTime == 0 {
		t.Fatal("recording produced nothing")
	}
	path := filepath.Join(t.TempDir(), "swaptions.trace.gz")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []noc.Design{noc.NoPG, noc.NoRD} {
		r, err := ReplayTrace(TraceConfig{Design: d, Path: path}, loaded)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if r.PacketsDelivered == 0 {
			t.Errorf("%v: replay delivered nothing", d)
		}
		if r.AvgPacketLatency <= 0 {
			t.Errorf("%v: no latency measured", d)
		}
		// The trace half of TestAliasesRunIdentically: a replay draws no
		// random number, so another seed is the same run — and only then
		// may fill give both spellings the one canonical form.
		seeded := TraceConfig{Design: d, Path: path, Seed: 2}
		if r2, err := ReplayTrace(seeded, loaded); err != nil || !reflect.DeepEqual(r2, r) {
			t.Errorf("%v: replay under seed 2 differs from seed 0 (err %v); fill must not fold it", d, err)
		}
		if seeded.Filled() != (TraceConfig{Design: d, Path: path}).Filled() {
			t.Errorf("%v: fill keeps the seeds of one replay apart", d)
		}
	}
}

func TestReplayTraceRejectsNonSquare(t *testing.T) {
	tr := &trace.Trace{Nodes: 12, Events: []trace.Event{{Cycle: 1, Src: 0, Dst: 1, Flits: 1}}}
	if _, err := ReplayTrace(TraceConfig{Design: noc.NoPG}, tr); err == nil {
		t.Error("non-square node count should fail")
	}
}

func TestSection68Configs(t *testing.T) {
	// The Section 6.8 variants run through the public harness.
	r, err := runSynthetic(SynthConfig{
		Design: noc.NoRD, Rate: 0.04, Measure: 8000,
		TwoStageRouter: true, AggressiveBypass: true, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := runSynthetic(SynthConfig{Design: noc.NoRD, Rate: 0.04, Measure: 8000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgPacketLatency >= base.AvgPacketLatency {
		t.Errorf("2-stage + aggressive NoRD (%.1f) should beat the canonical pipeline (%.1f)",
			r.AvgPacketLatency, base.AvgPacketLatency)
	}
}

func TestPerRouterReports(t *testing.T) {
	r, err := runSynthetic(SynthConfig{Design: noc.NoRD, Rate: 0.08, Measure: 10_000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Routers) != 16 {
		t.Fatalf("got %d router reports", len(r.Routers))
	}
	perf, totalFlits := 0, uint64(0)
	for _, rr := range r.Routers {
		if rr.PerfCentric {
			perf++
		}
		totalFlits += rr.FlitsRouted
		if rr.IdleFraction < 0 || rr.IdleFraction > 1 || rr.OffFraction < 0 || rr.OffFraction > 1 {
			t.Errorf("router %d fractions out of range: %+v", rr.ID, rr)
		}
	}
	if perf != 6 {
		t.Errorf("%d performance-centric routers, want 6", perf)
	}
	if totalFlits == 0 {
		t.Error("no flits recorded per router")
	}
	out := FormatPerRouter(r)
	if !strings.Contains(out, "bypassed") || !strings.Contains(out, "*") {
		t.Errorf("per-router table wrong:\n%s", out)
	}
}

func TestLatencyPercentilesOrdered(t *testing.T) {
	r, err := runSynthetic(SynthConfig{Design: noc.ConvPG, Rate: 0.05, Measure: 15_000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !(r.LatencyP50 <= r.LatencyP95 && r.LatencyP95 <= r.LatencyP99) {
		t.Errorf("percentiles out of order: %d/%d/%d", r.LatencyP50, r.LatencyP95, r.LatencyP99)
	}
	if r.LatencyP50 == 0 {
		t.Error("median latency missing")
	}
	// The mean sits between the median and the tail for this skewed
	// distribution.
	if float64(r.LatencyP99) < r.AvgPacketLatency {
		t.Errorf("p99 (%d) below the mean (%.1f)?", r.LatencyP99, r.AvgPacketLatency)
	}
}

func TestPowerTimeSeries(t *testing.T) {
	samples, _, err := PowerTimeSeries(context.Background(), SynthConfig{
		Design: noc.NoRD, Rate: 0.06, Warmup: 2000, Measure: 10_000, Seed: 9,
	}, RunOptions{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 10 {
		t.Fatalf("got %d samples, want 10", len(samples))
	}
	for i, s := range samples {
		if s.PowerW <= 0 {
			t.Errorf("sample %d: power %f", i, s.PowerW)
		}
		if s.OffFraction < 0 || s.OffFraction > 1 {
			t.Errorf("sample %d: off fraction %f", i, s.OffFraction)
		}
	}
	// Average of window throughputs approximates the offered rate.
	sum := 0.0
	for _, s := range samples {
		sum += s.Throughput
	}
	if avg := sum / float64(len(samples)); avg < 0.04 || avg > 0.08 {
		t.Errorf("window throughput average %f, want ~0.06", avg)
	}
	var buf bytes.Buffer
	if err := WritePowerSeriesCSV(&buf, samples); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cycle_start,noc_power_w") {
		t.Error("power series CSV header missing")
	}
	if _, _, err := PowerTimeSeries(context.Background(), SynthConfig{Design: noc.NoRD, Rate: 0.01, Measure: 100}, RunOptions{}, 0); err == nil {
		t.Error("zero period should fail")
	}
}

func TestWatchStates(t *testing.T) {
	var buf bytes.Buffer
	r, err := WatchStates(context.Background(), SynthConfig{Design: noc.NoRD, Rate: 0.03, Warmup: 100, Seed: 3}, RunOptions{}, 800, 2, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 1600 {
		t.Errorf("watched %d cycles, want 1600", r.Cycles)
	}
	out := buf.String()
	if !strings.Contains(out, "cycle 800") || !strings.Contains(out, "cycle 1600") {
		t.Errorf("missing frames:\n%s", out)
	}
	if !strings.ContainsAny(out, ".#O~") {
		t.Errorf("no state glyphs:\n%s", out)
	}
	if _, err := WatchStates(context.Background(), SynthConfig{Design: noc.NoRD, Rate: 0.01}, RunOptions{}, 0, 1, &buf); err == nil {
		t.Error("zero period should fail")
	}
}

func TestFormatResultCoversSections(t *testing.T) {
	r, err := runWorkload(WorkloadConfig{Design: noc.NoRD, Benchmark: "blackscholes", Scale: 0.02, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatResult(r)
	for _, want := range []string{"design", "execution time", "wakeups", "misrouted hops", "L1 hit rate", "PG overhead", "p50/p95/p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// No_PG report omits gating lines.
	r2, err := runSynthetic(SynthConfig{Design: noc.NoPG, Rate: 0.02, Measure: 5000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	out2 := FormatResult(r2)
	if strings.Contains(out2, "wakeups") {
		t.Error("No_PG report should omit gating lines")
	}
}

func TestRunWorkloadTimeout(t *testing.T) {
	_, err := runWorkload(WorkloadConfig{Design: noc.NoPG, Benchmark: "x264", Scale: 1, MaxCycles: 100, Seed: 1})
	if err == nil {
		t.Error("a 100-cycle budget must time out")
	}
}
