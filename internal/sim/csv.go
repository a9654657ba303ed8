package sim

import (
	"encoding/csv"
	"io"
	"strconv"
	"strings"

	"nord/internal/noc"
)

// firstLine flattens a (possibly multi-line) error message to its first
// line so CSV rows stay one physical line per record.
func firstLine(s string) string {
	return strings.SplitN(s, "\n", 2)[0]
}

// WriteSweepCSV emits load-sweep points as CSV (design, rate, latency,
// power, throughput, saturated) for external plotting.
func WriteSweepCSV(w io.Writer, pts []SweepPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"design", "rate", "avg_latency_cycles", "noc_power_w", "throughput_fpc", "saturated"}); err != nil {
		return err
	}
	for _, p := range pts {
		rec := []string{
			p.Design.String(),
			strconv.FormatFloat(p.Rate, 'f', -1, 64),
			strconv.FormatFloat(p.AvgLatency, 'f', 3, 64),
			strconv.FormatFloat(p.PowerW, 'f', 4, 64),
			strconv.FormatFloat(p.Throughput, 'f', 5, 64),
			strconv.FormatBool(p.Saturated),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSuiteCSV emits every (benchmark, design) Result of a suite run as
// CSV, one row per cell with the headline metrics.
func WriteSuiteCSV(w io.Writer, sr *SuiteResult) error {
	cw := csv.NewWriter(w)
	header := []string{
		"benchmark", "design", "exec_cycles", "avg_latency_cycles",
		"wakeups", "gate_offs", "off_fraction", "idle_fraction",
		"router_static_j", "router_dynamic_j", "link_static_j", "link_dynamic_j", "pg_overhead_j",
		"noc_energy_j", "avg_power_w", "misroutes", "escapes",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	// Round-trip precision: a fixed 8 significant digits corrupts
	// cycle/energy counts above 1e8.
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	for _, b := range sr.Benchmarks {
		for _, d := range noc.Designs() {
			r := sr.Results[b][d]
			rec := []string{
				b, d.String(), u(r.ExecTime), f(r.AvgPacketLatency),
				u(r.Wakeups), u(r.GateOffs), f(r.OffFraction), f(r.IdleFraction),
				f(r.Energy.RouterStatic), f(r.Energy.RouterDynamic),
				f(r.Energy.LinkStatic), f(r.Energy.LinkDynamic), f(r.Energy.PGOverhead),
				f(r.Energy.Total()), f(r.AvgPowerW), u(r.Misroutes), u(r.Escapes),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFig7CSV emits the Figure 7 threshold-determination series.
func WriteFig7CSV(w io.Writer, pts []Fig7Point) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"rate", "avg_latency_cycles", "throughput_fpc", "vc_requests_per_window"}); err != nil {
		return err
	}
	for _, p := range pts {
		if err := cw.Write([]string{
			strconv.FormatFloat(p.Rate, 'f', -1, 64),
			strconv.FormatFloat(p.AvgLatency, 'f', 3, 64),
			strconv.FormatFloat(p.Throughput, 'f', 5, 64),
			strconv.FormatFloat(p.VCReqWindow, 'f', 3, 64),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFig13CSV emits the Figure 13 wakeup-latency series.
func WriteFig13CSV(w io.Writer, pts []Fig13Point) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"design", "wakeup_latency_cycles", "avg_latency_cycles"}); err != nil {
		return err
	}
	for _, p := range pts {
		if err := cw.Write([]string{
			p.Design.String(),
			strconv.Itoa(p.WakeupLatency),
			strconv.FormatFloat(p.AvgLatency, 'f', 3, 64),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
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
