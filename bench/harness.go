package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nord/internal/sim"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64 // length of the measured window
	trace    bool
	quick    bool // every size divided by quickDiv; numbers are for smoke tests only
	// setupRepeats is how many extra cold set-ups run in child processes
	// (the planner memo is process-global, so a second cold set-up needs a
	// second process); setup_s is the median over them and this process's own.
	setupRepeats int
	root         string // checkout root: trace files and scratch dirs live under it
	golden       map[string]string
}

// quickDiv scales every workload down for -quick and the smoke test.
const quickDiv = 20

// scale divides a size in quick mode, never below floor.
func (c *config) scale(n, floor int) int {
	if !c.quick {
		return n
	}
	if n /= quickDiv; n < floor {
		n = floor
	}
	return n
}

// goldenKey names the workload's entry in golden.json.
func (c *config) goldenKey() string {
	if c.quick {
		return c.workload + "@quick"
	}
	return c.workload
}

// goldenSeed is the only seed golden.json holds digests for.
const goldenSeed = 1

// workload is one rung: a round of fixed work the harness repeats for the
// measured window. A round is made of op classes (a cell of a sweep, a
// pass of closed-loop jobs, one seeded search); every round runs each
// class once and reports it with e.unit.
type workload interface {
	// setup does everything that must precede the first measured
	// operation; its duration is setup_s.
	setup(e *env) error
	// round runs every op class once and returns a digest of the results
	// it produced.
	round(e *env) (digest string, err error)
	// repeatable reports whether every round repeats the same inputs, in
	// which case every round must reproduce the first one's digest.
	repeatable() bool
	// verify runs the cross-path correctness checks after the window.
	verify(e *env) error
	// layers runs the decomposed twins and microbenchmarks of the traced
	// run, recording spans on e.main.
	layers(e *env) error
	// derive turns the traced run's spans into per-layer metrics (e.set).
	derive(e *env, ss *spanSet)
	close()
}

// env is what a workload sees of the harness.
type env struct {
	cfg *config
	dir string // scratch directory, removed on exit

	// main is the main goroutine's track; nil outside the traced phase.
	tr   *tracer
	main *track

	attempted atomic.Int64
	failed    atomic.Int64

	units map[int][]unitSample // this window's timings, by op class

	mu       sync.Mutex
	lat      []float64 // op latencies in ms, pooled over the window
	failures []string  // first few failure reasons
	notes    []string  // notices for the human-readable report
	layer    map[string]float64
}

func newEnv(cfg *config) (*env, error) {
	dir := filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &env{cfg: cfg, dir: dir, layer: map[string]float64{}}, nil
}

func (e *env) cleanup() { _ = os.RemoveAll(e.dir) }

// unitSample is one timed execution of an op class.
type unitSample struct {
	ops float64
	d   time.Duration
}

// unit records one execution of op class c: ops operations in d. Only
// the goroutine that runs the rounds may call it.
func (e *env) unit(c int, ops float64, d time.Duration) {
	if e.units == nil {
		e.units = map[int][]unitSample{}
	}
	e.units[c] = append(e.units[c], unitSample{ops, d})
}

// op records one completed operation's latency.
func (e *env) op(d time.Duration) {
	e.mu.Lock()
	e.lat = append(e.lat, ms(d))
	e.mu.Unlock()
}

// attempt counts n operations (or checks) attempted.
func (e *env) attempt(n int) { e.attempted.Add(int64(n)) }

// fail counts n attempted operations as failed and keeps the reason.
func (e *env) fail(n int, format string, args ...any) {
	e.failed.Add(int64(n))
	e.mu.Lock()
	if len(e.failures) < 8 {
		e.failures = append(e.failures, fmt.Sprintf(format, args...))
	}
	e.mu.Unlock()
}

// note adds a line to the human-readable report.
func (e *env) note(format string, args ...any) {
	e.mu.Lock()
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
	e.mu.Unlock()
}

// set stores a per-layer metric.
func (e *env) set(name string, v float64) {
	e.mu.Lock()
	e.layer[name] = v
	e.mu.Unlock()
}

func (e *env) takeLatencies() []float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := e.lat
	e.lat = nil
	return out
}

// report is the outcome of one workload run.
type report struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]metricValue
	lines     []string // human-readable report, printed before the result line
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// windowResult is what one measured window produced.
type windowResult struct {
	rate   float64 // ops per second with every op class at its fastest round
	mean   float64 // ops per second over the whole window, interference included
	rounds int
	// classRates is each op class's fastest rate, in class order.
	classRates []float64
	ops        float64
	wall       time.Duration
	lat        []float64
	digest     string // of the first round
}

// bestRate is the window's throughput with every op class timed at its
// fastest repetition. On a shared host interference only ever adds time,
// and it comes in stretches of seconds, so the median round moves by
// 10-20% between runs of the same code while the fastest round of each
// class moves by 1-2% (README.md, "Steadiness"). A change that slows the
// program slows its fastest round too.
func bestRate(units map[int][]unitSample) (rate float64, perClass []float64) {
	var ops float64
	var d time.Duration
	perClass = make([]float64, len(units))
	for c, samples := range units {
		best := samples[0]
		for _, s := range samples[1:] {
			if s.ops*float64(best.d) > best.ops*float64(s.d) { // s.ops/s.d > best.ops/best.d
				best = s
			}
		}
		ops += best.ops
		d += best.d
		if c < len(perClass) && best.d > 0 {
			perClass[c] = best.ops / best.d.Seconds()
		}
	}
	if d <= 0 {
		return 0, perClass
	}
	return ops / d.Seconds(), perClass
}

// measure repeats w.round until the window is used up: another round
// starts only while it is expected to end nearer the target than
// stopping now.
func measure(e *env, w workload, seconds float64) (windowResult, error) {
	var res windowResult
	e.units = nil
	start := time.Now()
	for i := 0; ; i++ {
		digest, err := w.round(e)
		if err != nil {
			return res, err
		}
		if i == 0 {
			res.digest = digest
		} else if w.repeatable() {
			e.attempt(1)
			if digest != res.digest {
				e.fail(1, "round %d digest %s differs from the first round's %s", i, digest, res.digest)
			}
		}
		res.rounds = i + 1
		res.wall = time.Since(start)
		if el := res.wall.Seconds(); el+0.5*el/float64(i+1) >= seconds {
			break
		}
	}
	for _, samples := range e.units {
		for _, s := range samples {
			res.ops += s.ops
		}
	}
	res.rate, res.classRates = bestRate(e.units)
	res.mean = res.ops / res.wall.Seconds()
	res.lat = e.takeLatencies()
	return res, nil
}

// runWorkload executes one workload as the contract prescribes: set-up,
// one measured window, correctness checks, metrics.
func runWorkload(cfg *config) (*report, error) {
	def, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	e, err := newEnv(cfg)
	if err != nil {
		return nil, err
	}
	defer e.cleanup()
	rep := &report{metrics: map[string]metricValue{}}

	var setups []float64
	for i := 0; i < cfg.setupRepeats; i++ {
		s, err := childSetup(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		setups = append(setups, s)
	}
	w := newWorkload(cfg)
	defer w.close()
	t := time.Now()
	if err := w.setup(e); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups = append(setups, time.Since(t).Seconds())

	window := cfg.seconds
	if cfg.quick {
		window /= quickDiv
	}
	if cfg.trace {
		window /= 2 // half untraced, half traced
	}
	plain, err := measure(e, w, window)
	if err != nil {
		return nil, err
	}
	e.checkGolden(plain.digest)
	if err := w.verify(e); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	rate := plain.rate
	p50, p95, n := percentiles(plain.lat)

	if !cfg.trace {
		rep.metrics["ops_per_s"] = metricValue{rate, "1/s"}
		rep.metrics["peak_rss_mb"] = metricValue{peakRSSMB(), "MB"}
		rep.metrics["setup_s"] = metricValue{median(setups), "s"}
		rep.printf("%-22s %14.4f 1/s   (%s; each op class at its fastest of %d rounds)", "ops_per_s", rate, def.Op, plain.rounds)
		rep.printf("%-22s %14.4f 1/s   (%.0f ops in %.2f s, host interference included; not gated)", "  whole window", plain.mean, plain.ops, plain.wall.Seconds())
		if len(plain.classRates) <= 16 {
			rep.printf("%-22s %14s       %s", "  per op class", "", fmtFloats(plain.classRates))
		}
		rep.printf("%-22s %14.4f ms    (n=%d, not gated)", "op_latency_p50_ms", p50, n)
		if p95 > 0 {
			rep.printf("%-22s %14.4f ms    (n=%d, not gated)", "op_latency_p95_ms", p95, n)
		} else {
			rep.printf("%-22s %14s       (n=%d < %d samples)", "op_latency_p95_ms", "n/a", n, minP95Samples)
		}
		rep.printf("%-22s %14.4f MB", "peak_rss_mb", rep.metrics["peak_rss_mb"].Value)
		rep.printf("%-22s %14.4f s     (median of %d cold set-ups: %s)", "setup_s", median(setups), len(setups), fmtFloats(setups))
	} else {
		e.tr = newTracer()
		e.main = e.tr.newTrack()
		e.main.begin("bench.traced", cfg.workload, 0)
		traced, err := measure(e, w, window)
		if err != nil {
			return nil, err
		}
		e.main.begin("bench.layers", "", 0)
		if err := w.layers(e); err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
		e.main.end()
		e.main.end()
		all := newSpanSet(e.tr)
		w.derive(e, all)
		if cov := all.selfCoverage(); cov < 0.95 || cov > 1.05 {
			e.attempt(1)
			e.fail(1, "per-layer self times sum to %.3f of the traced wall", cov)
		}
		out := filepath.Join(cfg.root, "bench", "out", "trace-"+cfg.workload+".json")
		if err := writeChrome(out, all.spans); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		rep.printf("trace written to %s (%d spans)", out, len(all.spans))

		e.set(def.Op, rate)
		if def.Op == "jobs_per_s" {
			e.set("job_latency_p50_ms", p50)
			e.set("job_latency_p95_ms", p95)
			e.set("job_latency_samples", float64(n))
		}
		if rate > 0 {
			e.set("bench.trace_overhead_share", 1-traced.rate/rate)
		}
		e.set("bench.spans", float64(len(all.spans)))
		e.set("failed_share", float64(e.failed.Load())/math.Max(1, float64(e.attempted.Load())))
		for _, m := range perLayer {
			v := e.layer[m.Name]
			rep.metrics[m.Name] = metricValue{v, m.Unit}
			rep.printf("%-44s %16.4f %s", m.Name, v, m.Unit)
		}
		for name := range e.layer {
			if _, ok := rep.metrics[name]; !ok {
				return nil, fmt.Errorf("workload set %q, which metrics.go does not define", name)
			}
		}
	}

	rep.attempted, rep.failed = e.attempted.Load(), e.failed.Load()
	rep.correct = rep.failed == 0
	for _, n := range e.notes {
		rep.printf("note: %s", n)
	}
	for _, f := range e.failures {
		rep.printf("FAILED: %s", f)
	}
	return rep, nil
}

// checkGolden compares the first round's digest with golden.json. Only the
// default seed has digests; other seeds rely on the cross-path checks.
func (e *env) checkGolden(digest string) {
	if e.cfg.seed != goldenSeed || e.cfg.golden == nil {
		return
	}
	e.attempt(1)
	want, ok := e.cfg.golden[e.cfg.goldenKey()]
	switch {
	case !ok:
		e.fail(1, "golden.json has no digest for %s (run -update-golden in a benchmark PR)", e.cfg.goldenKey())
	case want != digest:
		e.fail(1, "result digest %s does not match golden %s for %s", digest, want, e.cfg.goldenKey())
	}
}

// childSetup runs this binary's set-up once in a fresh process and
// returns how long it took.
func childSetup(cfg *config) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10), "-setup-only")
	cmd.Dir = cfg.root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// setupOnly is the child side of childSetup.
func setupOnly(cfg *config) error {
	e, err := newEnv(cfg)
	if err != nil {
		return err
	}
	defer e.cleanup()
	w := newWorkload(cfg)
	defer w.close()
	t := time.Now()
	if err := w.setup(e); err != nil {
		return err
	}
	fmt.Println(strconv.FormatFloat(time.Since(t).Seconds(), 'f', -1, 64))
	return nil
}

// ---- statistics ----

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of xs; 0 when empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// minP95Samples is the fewest pooled samples p95 is reported from: it
// leaves ten samples beyond the percentile.
const minP95Samples = 200

// percentiles returns the median, the p95 (0 when there are fewer than
// minP95Samples samples) and the sample count.
func percentiles(samples []float64) (p50, p95 float64, n int) {
	n = len(samples)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	p50 = median(s)
	if n >= minP95Samples {
		p95 = s[int(math.Ceil(0.95*float64(n)))-1]
	}
	return p50, p95, n
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

// ---- host facts ----

// peakRSSMB is this process's VmHWM; 0 where /proc is missing.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// hostFacts is printed with every run.
func hostFacts() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("host_cpus=%d gomaxprocs=%d go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// ---- result digests ----

// resultDigest hashes the integer fields of sim.Results: they are exact
// for a seed on every host, unlike the floats derived from them.
type resultDigest struct{ h hash.Hash }

func newResultDigest() *resultDigest { return &resultDigest{h: sha256.New()} }

func (d *resultDigest) add(r sim.Result) {
	fmt.Fprintf(d.h, "%d %d %d %d %d %d %d %d %d %d\n", r.Cycles, r.PacketsDelivered, r.Wakeups,
		r.GateOffs, r.Misroutes, r.Escapes, r.LatencyP50, r.LatencyP95, r.LatencyP99, r.ExecTime)
}

func (d *resultDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
