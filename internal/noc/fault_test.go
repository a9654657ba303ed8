package noc

import (
	"errors"
	"testing"

	"nord/internal/fault"
	"nord/internal/topology"
	"nord/internal/traffic"
)

// runFaulted drives synthetic traffic through a faulted network with
// Step (the error-returning path), stops injection, and drains. It
// returns the first structured error, or nil if the run completed.
func runFaulted(n *Network, rate float64, seed int64, cycles, drainBudget int) error {
	inj := traffic.NewSynthetic(n, traffic.UniformRandom, rate, seed)
	for i := 0; i < cycles; i++ {
		inj.Tick(n.Cycle())
		if err := n.Step(); err != nil {
			return err
		}
	}
	inj.Rate = 0
	for i := 0; i < drainBudget && inj.Pending() > 0; i++ {
		inj.Tick(n.Cycle())
		if err := n.Step(); err != nil {
			return err
		}
	}
	return n.Drain(drainBudget)
}

// checkFaultAccounting asserts the conservation invariant of a drained
// faulted run: every unique injected payload was delivered or reported
// lost, and every loss carries an unrecoverable error.
func checkFaultAccounting(t *testing.T, label string, rep *fault.Report) {
	t.Helper()
	if rep == nil {
		t.Fatalf("%s: no fault report", label)
	}
	if rep.PacketsDelivered+rep.PacketsLost != rep.PacketsInjected {
		t.Fatalf("%s: conservation broken: %d delivered + %d lost != %d injected",
			label, rep.PacketsDelivered, rep.PacketsLost, rep.PacketsInjected)
	}
	if rep.PacketsLost > 0 && len(rep.Unrecoverable) == 0 {
		t.Fatalf("%s: %d packets lost but no unrecoverable errors reported", label, rep.PacketsLost)
	}
	if !rep.Recovered() && len(rep.Unrecoverable) == 0 {
		t.Fatalf("%s: not recovered yet nothing reported: %v", label, rep)
	}
}

// TestFaultSoakTransients runs seeded transient-fault schedules
// (corruption, dropped wakeups, stuck-off routers — no hard-fails)
// against all four designs on every topology and checks that every
// triggered fault is either recovered or reported, with delivery
// accounting intact. The mesh cells are named by design alone.
func TestFaultSoakTransients(t *testing.T) {
	for _, kind := range []topology.Kind{topology.KindMesh, topology.KindTorus, topology.KindCMesh} {
		for _, d := range []Design{NoPG, ConvPG, ConvPGOpt, NoRD} {
			name := d.String()
			if kind != topology.KindMesh {
				name += "_" + kind.String()
			}
			t.Run(name, func(t *testing.T) { soakTransients(t, d, kind) })
		}
	}
}

func soakTransients(t *testing.T, d Design, kind topology.Kind) {
	p := DefaultParams(d)
	p.Width, p.Height = 4, 4
	p.Topology = kind
	p.VCsPerClass = max(p.VCsPerClass, MinVCs(d, kind))
	n := MustNew(p)
	cfg := fault.Config{
		Seed:         int64(100 + d),
		Horizon:      4_000,
		StuckOff:     2,
		DropWakeups:  3,
		CorruptLinks: 12,
	}
	sched, err := fault.Generate(cfg, p.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AttachFaults(sched, FaultOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := runFaulted(n, 0.08, 42, 5_000, 200_000); err != nil {
		t.Fatalf("transient faults must be survivable on %v, got %v", d, err)
	}
	rep := n.FaultReport()
	if rep.InjectedTotal() != cfg.Total() {
		t.Fatalf("injected %d != scheduled %d", rep.InjectedTotal(), cfg.Total())
	}
	checkFaultAccounting(t, d.String(), rep)
	if rep.Triggered[fault.CorruptLink] > 0 && rep.Retransmits == 0 {
		t.Fatalf("%d corruptions triggered but no retransmissions issued",
			rep.Triggered[fault.CorruptLink])
	}
	if !n.Quiescent() {
		t.Fatal("network not quiescent after drain")
	}
	t.Logf("%d corruptions, %d retransmits, %d watchdog wakes",
		rep.Triggered[fault.CorruptLink], rep.Retransmits, rep.WatchdogWakeups)
}

// TestNoRDHardFailGracefulDegradation checks the headline robustness
// claim: NoRD survives permanently hard-failed routers because every
// node stays attached through the non-gated bypass ring. Three routers
// are killed mid-run on an 8x8 mesh; the run must complete without a
// structured error and deliver at least 99% of unique payloads.
func TestNoRDHardFailGracefulDegradation(t *testing.T) {
	p := DefaultParams(NoRD)
	p.Width, p.Height = 8, 8
	n := MustNew(p)
	cfg := fault.Config{Seed: 7, Horizon: 3_000, HardFails: 3, CorruptLinks: 6, DropWakeups: 2}
	sched, err := fault.Generate(cfg, p.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AttachFaults(sched, FaultOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := runFaulted(n, 0.05, 9, 12_000, 400_000); err != nil {
		t.Fatalf("NoRD must survive hard-failed routers, got %v", err)
	}
	rep := n.FaultReport()
	if rep.Triggered[fault.HardFail] != 3 || rep.RoutersLost != 3 {
		t.Fatalf("want 3 hard-fails triggered, got %d (routers lost %d)",
			rep.Triggered[fault.HardFail], rep.RoutersLost)
	}
	if got := len(n.HardFailedRouters()); got != 3 {
		t.Fatalf("HardFailedRouters reports %d routers, want 3", got)
	}
	if f := rep.DeliveredFraction(); f < 0.99 {
		t.Fatalf("delivered fraction %.4f < 0.99: %v", f, rep)
	}
	checkFaultAccounting(t, "NoRD", rep)
	for _, id := range n.HardFailedRouters() {
		if name := n.RouterStateName(id); name != "failed" {
			t.Fatalf("router %d state %q, want failed", id, name)
		}
	}
}

// TestConvHardFailReportsDeadlock checks the other half of the
// degradation story: designs without the bypass ring lose the failed
// router's node entirely, traffic through it wedges, and the run must
// surface a structured DeadlockError naming the failed routers instead
// of panicking.
func TestConvHardFailReportsDeadlock(t *testing.T) {
	for _, d := range []Design{NoPG, ConvPG} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			p := DefaultParams(d)
			p.Width, p.Height = 4, 4
			p.WatchdogLimit = 3_000
			n := MustNew(p)
			// Kill an interior router so XY routes are guaranteed to cross it.
			sched := fault.FromEvents(fault.Event{Cycle: 500, Kind: fault.HardFail, Router: 5})
			if err := n.AttachFaults(sched, FaultOptions{}); err != nil {
				t.Fatal(err)
			}
			var runErr error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("run panicked instead of returning an error: %v", r)
					}
				}()
				runErr = runFaulted(n, 0.05, 3, 60_000, 20_000)
			}()
			if runErr == nil {
				t.Fatal("expected a structured failure after hard-failing router 5")
			}
			var de *fault.DeadlockError
			if !errors.As(runErr, &de) {
				t.Fatalf("want DeadlockError, got %T: %v", runErr, runErr)
			}
			if de.Design != d.String() {
				t.Fatalf("deadlock error names design %q, want %q", de.Design, d)
			}
			found := false
			for _, id := range de.FailedRouters {
				if id == 5 {
					found = true
				}
			}
			if !found {
				t.Fatalf("deadlock error should name failed router 5, got %v", de.FailedRouters)
			}
			if len(de.Packets) == 0 || len(de.Packets) > fault.MaxDumpPackets {
				t.Fatalf("packet dump size %d outside (0,%d]", len(de.Packets), fault.MaxDumpPackets)
			}
			// The latched error is sticky: further steps keep returning it.
			if err := n.Step(); !errors.As(err, &de) {
				t.Fatalf("latched error not sticky, got %v", err)
			}
		})
	}
}

// TestFaultScheduleDeterminism runs the same seeded schedule twice and
// requires identical recovery reports.
func TestFaultScheduleDeterminism(t *testing.T) {
	run := func() string {
		p := DefaultParams(NoRD)
		p.Width, p.Height = 4, 4
		n := MustNew(p)
		cfg := fault.Config{Seed: 11, Horizon: 2_000, HardFails: 1, CorruptLinks: 8, DropWakeups: 2, StuckOff: 1}
		sched, err := fault.Generate(cfg, p.NumNodes())
		if err != nil {
			t.Fatal(err)
		}
		if err := n.AttachFaults(sched, FaultOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := runFaulted(n, 0.06, 5, 4_000, 200_000); err != nil {
			t.Fatal(err)
		}
		return n.FaultReport().String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same schedule diverged:\n%s\n%s", a, b)
	}
}

// TestRetryBudgetExhaustion corrupts one link so persistently that a
// packet crossing it burns its whole retry budget, and checks the loss
// is reported as an UnrecoverableError rather than silently dropped.
func TestRetryBudgetExhaustion(t *testing.T) {
	p := DefaultParams(NoPG)
	p.Width, p.Height = 4, 4
	n := MustNew(p)
	// Arm far more corruption events on the same link than the retry
	// budget: every retransmission is corrupted again until it is lost.
	var evs []fault.Event
	for i := 0; i < 400; i++ {
		evs = append(evs, fault.Event{Cycle: 10, Kind: fault.CorruptLink, Router: 5, Dir: 0})
	}
	if err := n.AttachFaults(fault.FromEvents(evs...), FaultOptions{
		RetryLimit: 3, RetryBackoffBase: 2, RetryBackoffCap: 8,
	}); err != nil {
		t.Fatal(err)
	}
	if err := runFaulted(n, 0.10, 8, 2_000, 200_000); err != nil {
		t.Fatalf("lost packets must degrade, not error the run: %v", err)
	}
	rep := n.FaultReport()
	if rep.PacketsLost == 0 {
		t.Fatalf("expected lost packets under persistent corruption: %v", rep)
	}
	if len(rep.Unrecoverable) == 0 {
		t.Fatal("losses must be reported as unrecoverable errors")
	}
	var ue *fault.UnrecoverableError
	if !errors.As(rep.Unrecoverable[0], &ue) {
		t.Fatalf("want UnrecoverableError, got %T", rep.Unrecoverable[0])
	}
	if ue.Retries != 3 {
		t.Fatalf("unrecoverable after %d retries, want the RetryLimit of 3", ue.Retries)
	}
	checkFaultAccounting(t, "retry-exhaustion", rep)
}

// TestWatchdogRecoversDroppedWakeup swallows a wakeup handshake on a
// gated router with pending traffic and checks the power-gating
// watchdog eventually force-wakes it, and that the routers attribute
// exactly those wakeups to the watchdog.
func TestWatchdogRecoversDroppedWakeup(t *testing.T) {
	for _, d := range []Design{ConvPG, NoRD} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			p := DefaultParams(d)
			p.Width, p.Height = 4, 4
			n := MustNew(p)
			// The fault report covers the whole run, so the routers'
			// measured window must too.
			n.BeginMeasurement()
			// Drop the next several wakeups on every router so some gated
			// router with demand is guaranteed to exercise the watchdog.
			var evs []fault.Event
			for id := 0; id < p.NumNodes(); id++ {
				evs = append(evs, fault.Event{Cycle: 300, Kind: fault.DropWakeup, Router: id})
			}
			if err := n.AttachFaults(fault.FromEvents(evs...), FaultOptions{WatchdogTimeout: 50}); err != nil {
				t.Fatal(err)
			}
			if err := runFaulted(n, 0.03, 17, 6_000, 400_000); err != nil {
				t.Fatalf("dropped wakeups must be survivable: %v", err)
			}
			rep := n.FaultReport()
			if rep.Triggered[fault.DropWakeup] == 0 {
				t.Skipf("no wakeup was swallowed at this load on %v", d)
			}
			// Conventional PG has no alternative path: a swallowed wakeup
			// must be recovered by the watchdog. On NoRD the bypass ring
			// keeps draining the blocked router's traffic, so demand can
			// evaporate before the timeout and the fault self-heals; only
			// require that the run recovered either way.
			if d == ConvPG && rep.WatchdogWakeups == 0 {
				t.Fatalf("%d wakeups dropped but watchdog never fired: %v",
					rep.Triggered[fault.DropWakeup], rep)
			}
			var forced uint64
			for _, rr := range n.PerRouterReports() {
				forced += rr.WakeWatchdog
			}
			if forced != rep.WatchdogWakeups {
				t.Errorf("routers attribute %d wakeups to the watchdog, the report counts %d", forced, rep.WatchdogWakeups)
			}
			checkFaultAccounting(t, d.String(), rep)
		})
	}
}
