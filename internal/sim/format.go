package sim

import (
	"fmt"
	"strings"
)

// FormatResult renders one run's measurements as a human-readable report.
func FormatResult(r Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "design           %v\n", r.Design)
	if r.Label != "" {
		fmt.Fprintf(&b, "workload         %s\n", r.Label)
	}
	fmt.Fprintf(&b, "nodes            %d\n", r.Nodes)
	fmt.Fprintf(&b, "measured cycles  %d\n", r.Cycles)
	if r.ExecTime > 0 {
		fmt.Fprintf(&b, "execution time   %d cycles\n", r.ExecTime)
	}
	fmt.Fprintf(&b, "packets          %d delivered\n", r.PacketsDelivered)
	fmt.Fprintf(&b, "avg latency      %.2f cycles (network %.2f; p50/p95/p99 %d/%d/%d)\n",
		r.AvgPacketLatency, r.AvgNetworkLatency, r.LatencyP50, r.LatencyP95, r.LatencyP99)
	fmt.Fprintf(&b, "avg hops         %.2f\n", r.AvgHops)
	fmt.Fprintf(&b, "throughput       %.4f flits/node/cycle\n", r.Throughput)
	fmt.Fprintf(&b, "router idle      %.1f%% of cycles (%.1f%% of idle periods <= BET)\n",
		100*r.IdleFraction, 100*r.IdleLEBET)
	if r.Design.Blocks().PGSwitch {
		fmt.Fprintf(&b, "gated off        %.1f%% of router-cycles\n", 100*r.OffFraction)
		fmt.Fprintf(&b, "wakeups          %d (gate-offs %d)\n", r.Wakeups, r.GateOffs)
	}
	if r.Misroutes > 0 || r.Escapes > 0 {
		fmt.Fprintf(&b, "misrouted hops   %d (escape-ring packets %d)\n", r.Misroutes, r.Escapes)
	}
	if r.L1HitRate > 0 {
		fmt.Fprintf(&b, "L1 hit rate      %.1f%%\n", 100*r.L1HitRate)
	}
	if fr := r.Fault; fr != nil {
		fmt.Fprintf(&b, "faults           %d injected, %d triggered (%d routers lost)\n",
			fr.InjectedTotal(), fr.TriggeredTotal(), fr.RoutersLost)
		fmt.Fprintf(&b, "fault recovery   %.2f%% delivered; %d retransmits, %d poisoned, %d watchdog wakeups, %d lost\n",
			100*fr.DeliveredFraction(), fr.Retransmits, fr.PacketsPoisoned, fr.WatchdogWakeups, fr.PacketsLost)
	}
	if r.Err != "" {
		fmt.Fprintf(&b, "run error        %s\n", strings.SplitN(r.Err, "\n", 2)[0])
	}
	e := r.Energy
	fmt.Fprintf(&b, "NoC energy       %.3e J (avg %.2f W)\n", e.Total(), r.AvgPowerW)
	fmt.Fprintf(&b, "  router static  %.3e J\n", e.RouterStatic)
	fmt.Fprintf(&b, "  router dynamic %.3e J\n", e.RouterDynamic)
	fmt.Fprintf(&b, "  link static    %.3e J\n", e.LinkStatic)
	fmt.Fprintf(&b, "  link dynamic   %.3e J\n", e.LinkDynamic)
	fmt.Fprintf(&b, "  PG overhead    %.3e J\n", e.PGOverhead)
	return b.String()
}

// FormatPerRouter renders the spatial per-router statistics as a table
// ordered by mesh position; performance-centric routers are starred. The
// wake:* columns split wakeups by cause.
func FormatPerRouter(r Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-5s %8s %8s %8s %8s %9s %10s %10s %8s %8s %8s %8s %9s %8s\n",
		"id", "(x,y)", "idle%", "off%", "wakeups", "gateoffs", "meanoff", "flits", "bypassed",
		"wake:sa", "wake:loc", "wake:vc", "wake:wd", "misroutes", "escapes")
	for _, rr := range r.Routers {
		star := " "
		if rr.PerfCentric {
			star = "*"
		}
		failed := ""
		if rr.HardFailed {
			failed = "  FAILED"
		}
		fmt.Fprintf(&b, "%-3d%s (%d,%d) %7.1f%% %7.1f%% %8d %8d %9.1f %10d %10d %8d %8d %8d %8d %9d %8d%s\n",
			rr.ID, star, rr.X, rr.Y, 100*rr.IdleFraction, 100*rr.OffFraction,
			rr.Wakeups, rr.GateOffs, rr.MeanOffInterval, rr.FlitsRouted, rr.BypassFlits,
			rr.WakeSA, rr.WakeLocal, rr.WakeVC, rr.WakeWatchdog, rr.Misroutes, rr.Escapes, failed)
	}
	return b.String()
}
