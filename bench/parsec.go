package main

import (
	"context"
	"math"
	"time"

	"nord/internal/noc"
	"nord/internal/sim"
)

// Paper reference results (EXPERIMENTS.md): NoRD keeps 0.190 of Conv_PG's
// router wakeups (Figure 9b) and raises average packet latency by 15.2%
// over No_PG (Figure 11).
const (
	paperWakeupRatio        = 0.190
	paperLatencyIncreasePct = 15.2
)

var parsecBenchmarks = []string{"blackscholes", "canneal", "dedup", "x264"}

// Scales of the per-core instruction quota. Rounds are timed at
// parsecTimedScale so that one round of 16 sims stays near a second and
// the window holds enough rounds to reject host interference; accuracy
// against the paper is taken once per traced run at parsecPaperScale, the
// scale EXPERIMENTS.md's reduced-scale figures use.
const (
	parsecTimedScale = 0.01
	parsecPaperScale = 0.1
)

// parsecWorkload is suite_parsec: full-system runs through memsys.
type parsecWorkload struct {
	cfg  *config
	runs []sim.WorkloadConfig // one op class each
	last []sim.Result

	paper        []sim.Result // the traced run's parsecPaperScale suite
	replayCycles float64      // simulated cycles the traced run's replays ticked
}

// parsecSuite lists every benchmark on every design, benchmark-major.
func parsecSuite(seed int64, scale float64) []sim.WorkloadConfig {
	var runs []sim.WorkloadConfig
	for _, b := range parsecBenchmarks {
		for _, d := range noc.Designs() {
			runs = append(runs, sim.WorkloadConfig{Design: d, Benchmark: b, Scale: scale, Seed: seed})
		}
	}
	return runs
}

func newSuiteParsec(cfg *config) *parsecWorkload {
	// The timed suite is small already; -quick only shrinks the paper-scale one.
	return &parsecWorkload{cfg: cfg, runs: parsecSuite(cfg.seed, parsecTimedScale)}
}

func (w *parsecWorkload) repeatable() bool { return true }
func (w *parsecWorkload) close()           {}

func (w *parsecWorkload) setup(e *env) error {
	d, err := coldPlanner("mesh", 4)
	e.set("topology.planner_cold_ms.mesh4", ms(d))
	return err
}

func (w *parsecWorkload) round(e *env) (string, error) {
	res, digest := w.runSuite(e, "sim.RunWorkloadOpts", w.runs, true)
	w.last = res
	return digest, nil
}

// runSuite runs every config in order under spans of the given name;
// timed runs are the round's units.
func (w *parsecWorkload) runSuite(e *env, span string, runs []sim.WorkloadConfig, timed bool) ([]sim.Result, string) {
	dg := newResultDigest()
	res := make([]sim.Result, len(runs))
	for i, c := range runs {
		e.attempt(1)
		e.main.begin(span, c.Benchmark, int64(i))
		t := time.Now()
		r, err := sim.RunWorkloadOpts(context.Background(), c, sim.RunOptions{})
		d := time.Since(t)
		e.main.end()
		if err != nil {
			e.fail(1, "%s on %v: %v", c.Benchmark, c.Design, err)
			continue
		}
		dg.add(r)
		res[i] = r
		if timed {
			e.op(d)
			e.unit(i, float64(r.ExecTime), d) // simulated cycles ticked, warm-up included
		}
	}
	return res, dg.sum()
}

func (w *parsecWorkload) verify(e *env) error { return nil }

// paperErrors returns the distance of a suite's results from the paper's
// Figure 9b and Figure 11 averages over the benchmarks run.
func paperErrors(res []sim.Result) (wakeupRatioErr, latencyIncreaseErrPP float64) {
	var ratio, increase float64
	n := 0
	for i := 0; i+3 < len(res); i += 4 { // benchmark-major, designs in noc.Designs() order
		noPG, convPG, nord := res[i+int(noc.NoPG)], res[i+int(noc.ConvPG)], res[i+int(noc.NoRD)]
		if convPG.Wakeups == 0 || noPG.AvgPacketLatency == 0 {
			continue
		}
		ratio += float64(nord.Wakeups) / float64(convPG.Wakeups)
		increase += (nord.AvgPacketLatency/noPG.AvgPacketLatency - 1) * 100
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return math.Abs(ratio/float64(n) - paperWakeupRatio), math.Abs(increase/float64(n) - paperLatencyIncreasePct)
}

// tracedBenchmarks are recorded and replayed by the traced run.
var tracedBenchmarks = []string{"blackscholes", "dedup"}

// layers runs the suite once at the paper's scale for the accuracy and
// memsys numbers, then records two NoRD runs as traces and replays them:
// a replay drives noc alone, so run over replay estimates what memsys adds.
func (w *parsecWorkload) layers(e *env) error {
	scale := parsecPaperScale
	if w.cfg.quick {
		scale /= quickDiv
	}
	w.paper, _ = w.runSuite(e, "sim.RunWorkloadOpts.paper", parsecSuite(w.cfg.seed, scale), false)
	for i, b := range tracedBenchmarks {
		c := sim.WorkloadConfig{Design: noc.NoRD, Benchmark: b, Scale: parsecTimedScale, Seed: w.cfg.seed}
		e.attempt(2)
		e.main.begin("trace.RecordWorkloadTrace", b, int64(i))
		tr, _, err := sim.RecordWorkloadTrace(c)
		e.main.end()
		if err != nil {
			e.fail(2, "recording %s: %v", b, err)
			continue
		}
		e.main.begin("trace.ReplayTrace", b, int64(i))
		r, err := sim.ReplayTrace(sim.TraceConfig{Design: noc.NoRD, Seed: w.cfg.seed}, tr)
		e.main.end()
		if err != nil {
			e.fail(1, "replaying %s: %v", b, err)
			continue
		}
		w.replayCycles += float64(r.Cycles)
	}
	return nil
}

func (w *parsecWorkload) derive(e *env, ss *spanSet) {
	e.set("sim.workload_run_ms", median(ss.durationsMS("sim.RunWorkloadOpts", "")))
	e.set("trace.record_ms", median(ss.durationsMS("trace.RecordWorkloadTrace", "")))
	if replay := sum(ss.durationsMS("trace.ReplayTrace", "")); replay > 0 {
		e.set("trace.replay_cycles_per_s", w.replayCycles/(replay/1000))
		// The recorded runs repeat the timed NoRD runs of the same benchmarks.
		var runMS float64
		for _, b := range tracedBenchmarks {
			for i, c := range w.runs {
				if c.Benchmark == b && c.Design == noc.NoRD {
					runMS += median(opDurationsMS(ss, "sim.RunWorkloadOpts", int64(i)))
				}
			}
		}
		e.set("memsys.run_vs_replay_ratio", runMS/replay)
	}

	var totals simTotals
	var hit, exec float64
	for _, r := range w.paper {
		totals.add(r)
		hit += r.L1HitRate
		exec += float64(r.ExecTime)
	}
	totals.emit(e)
	e.set("memsys.l1_hit_rate", hit/float64(len(w.paper)))
	e.set("memsys.exec_cycles", exec)
	wk, lat := paperErrors(w.paper)
	e.set("paper_wakeup_ratio_err", wk)
	e.set("paper_latency_increase_err_pp", lat)
}

// opDurationsMS lists the durations of the named spans of one operation.
func opDurationsMS(ss *spanSet, name string, op int64) []float64 {
	var out []float64
	ss.each(name, "", func(i int) {
		if ss.spans[i].Op == op {
			out = append(out, ms(ss.spans[i].dur()))
		}
	})
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
