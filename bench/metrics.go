package main

import "fmt"

// metricDef names one metric of the ladder. BENCHMARK.json restates this
// table; TestManifestMatchesRegistry keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // allowed worsening as a share of the parent's median; end-to-end only
}

// endToEnd is printed by every workload's untraced run. The driver gates
// each (metric, workload) pair, so every metric here must be defined and
// non-zero on all eight workloads: what one "op" is depends on the
// workload (see workloadDefs and README.md).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// workloadDef is one rung of the ladder.
type workloadDef struct {
	Name string
	Op   string // what ops_per_s counts, and the ISSUE-11 alias it stands for
	Why  string
}

var workloadDefs = []workloadDef{
	{"kernel_nord_low", "sim_cycles_per_s",
		"NoRD 8x8 at 2% load: routers mostly gated, the NI/bypass-ring path of noc does the work; where an event-sparse ring must show"},
	{"kernel_busy", "sim_cycles_per_s",
		"all four designs at 10% and 25% load on 8x8: router pipeline and PG churn dominate; a low-load trick that costs loaded cycles shows here"},
	{"sweep_short", "sims_per_s",
		"the Kao & Fink shape: 40 short sims over five grids; build, planner and collect are a large share, the tick loop a small one"},
	{"suite_parsec", "sim_cycles_per_s",
		"four PARSEC-like profiles x four designs through memsys: three message classes, closed-loop traffic the synthetic rungs bypass"},
	{"serve_closed", "jobs_per_s",
		"2 closed-loop clients, every job distinct: HTTP, spec resolve, cache key, scheduler, sim, marshal and cache put on each"},
	{"serve_cache_hit", "jobs_per_s",
		"2 closed-loop clients resubmit 256 known specs by Zipf(1.1): no sim runs, the dedup and read path does all the work"},
	{"fleet_durable", "jobs_per_s",
		"serve_closed's job mix through a journaled coordinator and two loopback workers: the price of lease, tier, report and WAL"},
	{"search_nsga2", "evals_per_s",
		"POST /v1/search NSGA-II on a cold server: driver, singleflight and child-job fan-in; repeats inside a search hit the cache"},
}

var (
	gridNames = []string{"mesh4", "mesh8", "mesh10", "torus8", "cmesh4"}
	cellNames = []string{"nord_r02",
		"no_pg_r10", "no_pg_r25", "conv_pg_r10", "conv_pg_r25",
		"conv_pg_opt_r10", "conv_pg_opt_r25", "nord_r10", "nord_r25"}
)

// perLayer is printed by every workload's traced run; a layer the
// workload does not drive reports 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{Name: name, Unit: unit, Better: better}) }
	perGrid := func(prefix, unit, better string) {
		for _, g := range gridNames {
			add(prefix+"."+g, unit, better)
		}
	}

	// The ISSUE-11 end-to-end names, from the untraced half of the traced
	// run. They cannot be gated end-to-end metrics because each is
	// undefined (0) on most workloads; ops_per_s carries them there.
	add("sim_cycles_per_s", "1/s", "higher")
	add("sims_per_s", "1/s", "higher")
	add("jobs_per_s", "1/s", "higher")
	add("job_latency_p50_ms", "ms", "lower")
	add("job_latency_p95_ms", "ms", "lower")
	add("job_latency_samples", "count", "higher")
	add("evals_per_s", "1/s", "higher")
	add("failed_share", "share", "lower")
	add("paper_wakeup_ratio_err", "ratio", "lower")
	add("paper_latency_increase_err_pp", "pp", "lower")

	perGrid("topology.planner_cold_ms", "ms", "lower")
	add("topology.planner_warm_us", "us", "lower")

	perGrid("noc.new_ms", "ms", "lower")
	for _, c := range cellNames {
		add("noc.step_ns_per_cycle."+c, "ns", "lower")
	}
	add("noc.step_ns_per_delivered_flit", "ns", "lower")
	add("noc.allocs_per_cycle", "count", "lower")
	add("noc.bytes_per_cycle", "B", "lower")
	add("noc.shard2_speedup_vs_serial.no_pg16", "ratio", "higher")
	add("noc.shard2_speedup_vs_serial.nord16", "ratio", "higher")
	add("noc.wakeups", "count", "lower")
	add("noc.gate_offs", "count", "lower")
	add("noc.off_fraction", "share", "higher")
	add("noc.misroutes", "count", "lower")
	add("noc.escapes", "count", "lower")
	add("noc.packets_delivered", "count", "higher")
	add("noc.avg_packet_latency_cycles", "cycles", "lower")

	add("traffic.tick_ns_per_cycle", "ns", "lower")
	add("traffic.packets_injected", "count", "higher")
	add("power.model_new_us", "us", "lower")

	perGrid("sim.run_ms", "ms", "lower")
	add("sim.self_ms", "ms", "lower")
	add("sim.setup_share", "share", "lower")
	add("sim.workload_run_ms", "ms", "lower")

	add("memsys.l1_hit_rate", "share", "higher")
	add("memsys.exec_cycles", "cycles", "lower")
	add("memsys.run_vs_replay_ratio", "ratio", "lower")
	add("trace.record_ms", "ms", "lower")
	add("trace.replay_cycles_per_s", "1/s", "higher")

	add("serve.canonical_json_us", "us", "lower")
	add("serve.cache_key_us", "us", "lower")
	add("serve.cache_put_us", "us", "lower")
	add("serve.cache_get_mem_us", "us", "lower")
	add("serve.cache_get_disk_us", "us", "lower")
	add("serve.cache_mem_hit_share", "share", "higher")
	add("serve.execute_request_ms", "ms", "lower")
	add("serve.submit_rtt_ms", "ms", "lower")
	add("serve.get_result_ms", "ms", "lower")
	add("serve.overhead_ms", "ms", "lower")
	add("serve.result_bytes", "B", "lower")
	add("serve.metrics_scrape_ms", "ms", "lower")
	add("serve.sims_executed", "count", "lower")
	add("serve.cache_hits", "count", "higher")
	add("serve.coalesced", "count", "higher")
	add("serve.rejected_429", "count", "lower")
	add("serve.singleflight_fanin_ms", "ms", "lower")
	add("serve.singleflight_sims", "count", "lower")

	add("fleet.journal_append_us", "us", "lower")
	add("fleet.journal_open_replay_ms", "ms", "lower")
	add("fleet.tier_get_ms", "ms", "lower")
	add("fleet.tier_put_ms", "ms", "lower")
	add("fleet.overhead_ms", "ms", "lower")
	add("fleet.leases_granted", "count", "lower")
	add("fleet.journal_appends", "count", "lower")
	add("fleet.tier_hits", "count", "higher")
	add("fleet.local_jobs", "count", "lower")
	add("fleet.requeues", "count", "lower")
	add("fleet.lease_expiries", "count", "lower")
	add("fleet.tier_errors", "count", "lower")

	add("search.driver_self_ms_per_gen", "ms", "lower")
	add("search.evaluations", "count", "higher")
	add("search.cache_hits", "count", "higher")
	add("search.cache_hit_share", "share", "higher")
	add("search.infeasible", "count", "lower")
	add("search.front_size", "count", "higher")
	add("search.warm_rerun_ms", "ms", "lower")

	add("bench.trace_overhead_share", "share", "lower")
	add("bench.spans", "count", "lower")
	return out
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
