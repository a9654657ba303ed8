package sim

import (
	"errors"
	"strings"
	"testing"

	"nord/internal/fault"
	"nord/internal/noc"
)

func TestRunSyntheticWithFaults(t *testing.T) {
	r, err := runSynthetic(SynthConfig{
		Design: noc.NoRD, Width: 4, Height: 4,
		Rate: 0.05, Warmup: 1_000, Measure: 4_000, Seed: 2,
		Faults: &fault.Config{Seed: 5, CorruptLinks: 8, DropWakeups: 2},
	})
	if err != nil {
		t.Fatalf("transient faults must be survivable: %v", err)
	}
	if r.Err != "" {
		t.Fatalf("unexpected run error %q", r.Err)
	}
	fr := r.Fault
	if fr == nil {
		t.Fatal("faulted run must carry a fault report")
	}
	if fr.InjectedTotal() != 10 {
		t.Fatalf("injected %d events, want 10", fr.InjectedTotal())
	}
	if fr.PacketsDelivered+fr.PacketsLost != fr.PacketsInjected {
		t.Fatalf("conservation broken: %d + %d != %d",
			fr.PacketsDelivered, fr.PacketsLost, fr.PacketsInjected)
	}
}

func TestRunSyntheticHardFailConvReportsDeadlock(t *testing.T) {
	r, err := runSynthetic(SynthConfig{
		Design: noc.ConvPG, Width: 4, Height: 4,
		Rate: 0.05, Warmup: 500, Measure: 10_000, Seed: 2,
		WatchdogLimit: 2_000, DrainCycles: 10_000,
		Faults: &fault.Config{Seed: 3, HardFails: 2},
	})
	if err == nil {
		t.Fatal("hard-failed routers must wedge a conventional design")
	}
	var de *fault.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want DeadlockError, got %T: %v", err, err)
	}
	if r.Err == "" || !strings.Contains(r.Err, "deadlock") {
		t.Fatalf("result should record the failure, got %q", r.Err)
	}
	if r.Fault == nil || r.Fault.RoutersLost == 0 {
		t.Fatal("result should still carry the fault report of the partial run")
	}
}

// TestParallelSweepSurvivesFaultedRuns drives the resilient parallel
// path directly: one run panics (legacy Tick crash), the others finish.
func TestParallelSweepSurvivesFaultedRuns(t *testing.T) {
	res, err := runGuarded(func() (Result, error) {
		panic(errors.New("synthetic crash"))
	})
	if err == nil || res.Err == "" {
		t.Fatal("panic must surface as an error and be recorded on the result")
	}
	if !IsRuntimeFailure(err) {
		t.Fatal("recovered panics must classify as runtime failures")
	}
	if IsRuntimeFailure(errors.New("flag: bad pattern")) {
		t.Fatal("plain config errors must not classify as runtime failures")
	}
	for _, mk := range []error{
		&fault.DeadlockError{Design: "x"},
		&fault.ProtocolError{Cycle: 1, Router: -1, Msg: "m"},
		&fault.UnrecoverableError{Cycle: 1},
	} {
		if !IsRuntimeFailure(mk) {
			t.Fatalf("%T must classify as a runtime failure", mk)
		}
	}
}

// TestRunWorkloadDeadlockFailsTheRun: a full-system run whose network
// deadlocks fails like a synthetic one — structured error plus partial
// Result — where it used to panic through memsys.Tick and kill the
// process serving it. Conv_PG with a wakeup latency beyond the watchdog
// horizon is such a run, reachable through the public config alone.
func TestRunWorkloadDeadlockFailsTheRun(t *testing.T) {
	r, err := runWorkload(WorkloadConfig{
		Design: noc.ConvPG, Benchmark: "x264", Scale: 0.05, Seed: 2,
		Warmup: ZeroWarmup, WakeupLatency: 60_000,
	})
	var de *fault.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want a *fault.DeadlockError, got %T: %v", err, err)
	}
	if !strings.Contains(r.Err, "deadlock") {
		t.Fatalf("result should record the failure, got %q", r.Err)
	}
	if r.Cycles == 0 || r.ExecTime != 0 {
		t.Fatalf("want the partial statistics of an unfinished run, got %d cycles, exec %d", r.Cycles, r.ExecTime)
	}
}
