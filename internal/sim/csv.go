package sim

import (
	"encoding/csv"
	"io"
	"strconv"
	"strings"
)

// firstLine flattens a (possibly multi-line) error message to its first
// line so CSV rows stay one physical line per record.
func firstLine(s string) string {
	return strings.SplitN(s, "\n", 2)[0]
}

// ResultCSVHeader and ResultCSVRecord serialise single Results, used by
// nordsim's -csv mode.
func ResultCSVHeader() []string {
	return []string{
		"design", "label", "nodes", "cycles", "exec_cycles",
		"avg_latency_cycles", "avg_hops", "throughput_fpc",
		"idle_fraction", "off_fraction", "wakeups",
		"noc_energy_j", "avg_power_w",
		"faults_triggered", "retransmits", "packets_lost", "routers_lost", "error",
	}
}

// ResultCSVRecord renders one result as a CSV record aligned with
// ResultCSVHeader.
func ResultCSVRecord(r Result) []string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	triggered, retx, lost, routersLost := 0, uint64(0), uint64(0), 0
	if r.Fault != nil {
		triggered = r.Fault.TriggeredTotal()
		retx = r.Fault.Retransmits
		lost = r.Fault.PacketsLost
		routersLost = r.Fault.RoutersLost
	}
	return []string{
		r.Design.String(), r.Label,
		strconv.Itoa(r.Nodes), strconv.FormatUint(r.Cycles, 10), strconv.FormatUint(r.ExecTime, 10),
		f(r.AvgPacketLatency), f(r.AvgHops), f(r.Throughput),
		f(r.IdleFraction), f(r.OffFraction), strconv.FormatUint(r.Wakeups, 10),
		f(r.Energy.Total()), f(r.AvgPowerW),
		strconv.Itoa(triggered), strconv.FormatUint(retx, 10),
		strconv.FormatUint(lost, 10), strconv.Itoa(routersLost), firstLine(r.Err),
	}
}

// WriteRouterCSV emits a Result's per-router spatial statistics as CSV:
// one row per mesh position with residency fractions, gating activity,
// wakeups by cause, bypass usage, detours and escapes, for heat maps and
// the Fig. 12-14-style per-router timeline analyses.
func WriteRouterCSV(w io.Writer, r Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"router", "x", "y", "idle_fraction", "off_fraction",
		"wakeups", "gate_offs", "mean_off_interval_cycles",
		"flits_routed", "bypass_flits", "perf_centric", "hard_failed",
		"wake_sa_request", "wake_local_inject", "wake_vc_threshold", "wake_watchdog",
		"misroutes", "escapes",
	}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 5, 64) }
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	for _, rr := range r.Routers {
		if err := cw.Write([]string{
			strconv.Itoa(rr.ID), strconv.Itoa(rr.X), strconv.Itoa(rr.Y),
			f(rr.IdleFraction), f(rr.OffFraction),
			u(rr.Wakeups), u(rr.GateOffs),
			strconv.FormatFloat(rr.MeanOffInterval, 'f', 1, 64),
			u(rr.FlitsRouted), u(rr.BypassFlits),
			strconv.FormatBool(rr.PerfCentric), strconv.FormatBool(rr.HardFailed),
			u(rr.WakeSA), u(rr.WakeLocal), u(rr.WakeVC), u(rr.WakeWatchdog),
			u(rr.Misroutes), u(rr.Escapes),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteDegradationCSV emits the graceful-degradation sweep as CSV.
func WriteDegradationCSV(w io.Writer, pts []DegradationPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"design", "hard_fails", "delivered_fraction", "avg_latency_cycles",
		"retransmits", "watchdog_wakeups", "packets_lost", "error",
	}); err != nil {
		return err
	}
	for _, p := range pts {
		if err := cw.Write([]string{
			p.Design.String(),
			strconv.Itoa(p.HardFails),
			strconv.FormatFloat(p.Delivered, 'f', 5, 64),
			strconv.FormatFloat(p.AvgLatency, 'f', 3, 64),
			strconv.FormatUint(p.Retransmits, 10),
			strconv.FormatUint(p.Watchdog, 10),
			strconv.FormatUint(p.PacketsLost, 10),
			firstLine(p.Err),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
