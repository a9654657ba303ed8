package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"nord/internal/memsys"
	"nord/internal/noc"
	"nord/internal/sim"
	"nord/internal/trace"
	"nord/internal/traffic"
)

// JobRequest is the POST /v1/jobs body: a kind plus the matching spec.
type JobRequest struct {
	Kind      string         `json:"kind"`
	Synthetic *SyntheticSpec `json:"synthetic,omitempty"`
	Workload  *WorkloadSpec  `json:"workload,omitempty"`
	Trace     *TraceSpec     `json:"trace,omitempty"`
	Sweep     *SweepSpec     `json:"sweep,omitempty"`
}

// SyntheticSpec requests one synthetic-traffic run (sim.RunSyntheticOpts).
// Warmup is a pointer so an explicit 0 ("no warmup") is distinguishable
// from the field being omitted (the paper's default); TraceEvents asks
// the server to record a cycle-level event trace for this job, streamed
// at GET /v1/jobs/{id}/trace.
type SyntheticSpec struct {
	Design string `json:"design"`
	Width  int    `json:"width"`
	Height int    `json:"height"`
	// Topology selects the interconnect: "mesh" (default), "torus" or
	// "cmesh". Width/Height size the router grid in every case.
	Topology      string  `json:"topology,omitempty"`
	Pattern       string  `json:"pattern"`
	Rate          float64 `json:"rate"`
	Warmup        *int    `json:"warmup,omitempty"`
	Measure       int     `json:"measure"`
	Seed          int64   `json:"seed"`
	WakeupLatency int     `json:"wakeup_latency"`
	NoPerfCentric bool    `json:"no_perf_centric"`
	ForcedOff     bool    `json:"forced_off"`
	TraceEvents   bool    `json:"trace_events,omitempty"`
	// Microarchitecture and power-gating knobs, exposed for the
	// design-space search (POST /v1/search); 0 selects the Table 1
	// default (noc.DefaultParams). Which spellings name one simulation
	// — a default written out, a knob the design never reads — is
	// sim.SynthConfig.Filled's decision alone (DESIGN.md §8, "Identity").
	VCs            int `json:"vcs,omitempty"`
	BufferDepth    int `json:"buffer_depth,omitempty"`
	GateIdle       int `json:"gate_idle,omitempty"`
	ThresholdPerf  int `json:"threshold_perf,omitempty"`
	ThresholdPower int `json:"threshold_power,omitempty"`
}

// WorkloadSpec requests one PARSEC-like full-system run
// (sim.RunWorkloadOpts).
type WorkloadSpec struct {
	Design      string  `json:"design"`
	Benchmark   string  `json:"benchmark"`
	Scale       float64 `json:"scale"`
	Warmup      *int    `json:"warmup,omitempty"`
	Seed        int64   `json:"seed"`
	MaxCycles   uint64  `json:"max_cycles"`
	TraceEvents bool    `json:"trace_events,omitempty"`
}

// TraceSpec requests a trace replay (sim.ReplayTraceOpts) of a
// server-local trace file.
type TraceSpec struct {
	Design      string `json:"design"`
	Path        string `json:"path"`
	Warmup      *int   `json:"warmup,omitempty"`
	Seed        int64  `json:"seed"`
	MaxCycles   uint64 `json:"max_cycles"`
	TraceEvents bool   `json:"trace_events,omitempty"`
}

// maxSweepRates caps the rate list of one sweep job; each rate fans out
// into a full simulation per design.
const maxSweepRates = 128

// warmupValue maps a spec's optional warmup onto the sim layer's
// convention: omitted means "use the design default" (encoded as 0),
// an explicit 0 means "no warmup" (the sim.ZeroWarmup sentinel), and
// negatives are client errors.
func warmupValue(w *int) (int, error) {
	switch {
	case w == nil:
		return 0, nil
	case *w < 0:
		return 0, fmt.Errorf("negative warmup %d", *w)
	case *w == 0:
		return sim.ZeroWarmup, nil
	}
	return *w, nil
}

// SweepSpec requests a load sweep over the sweep designs (sim.LoadSweep);
// its fields mirror sim.SweepConfig.
type SweepSpec struct {
	Width   int       `json:"width"`
	Height  int       `json:"height"`
	Pattern string    `json:"pattern"`
	Rates   []float64 `json:"rates"`
	Measure int       `json:"measure"`
	Seed    int64     `json:"seed"`
}

// runInfo carries a completed run's headline counters back to the server
// for the per-design Prometheus series (nil for sweeps, whose cells span
// designs).
type runInfo struct {
	design  noc.Design
	wakeups uint64
	detours uint64
}

// encodeResult turns a finished single run into its cacheable payload
// and headline counters. A run that failed produces neither, whatever
// partial Result came with the error.
func encodeResult(r sim.Result, err error) ([]byte, *runInfo, error) {
	if err != nil {
		return nil, nil, err
	}
	b, err := json.Marshal(r)
	return b, &runInfo{design: r.Design, wakeups: r.Wakeups, detours: r.Misroutes}, err
}

// RunMeta is runInfo in wire form: the headline counters a fleet worker
// reports alongside its payload so the coordinator's per-design metrics
// match what a local run would have recorded.
type RunMeta struct {
	Design  string `json:"design,omitempty"`
	Wakeups uint64 `json:"wakeups,omitempty"`
	Detours uint64 `json:"detours,omitempty"`
}

// ExecuteRequest resolves req and runs it on the calling goroutine — the
// fleet worker's execution path. The returned payload is byte-identical
// to what a local run of the same request would produce and cache
// (results are deterministic and the marshalling is canonical), which is
// what makes fleet-side retries and duplicate executions harmless.
func ExecuteRequest(ctx context.Context, req *JobRequest, opt sim.RunOptions) ([]byte, *RunMeta, error) {
	t, err := resolveSpec(req)
	if err != nil {
		return nil, nil, err
	}
	payload, info, err := t.run(ctx, opt)
	var meta *RunMeta
	if info != nil {
		meta = &RunMeta{Design: info.design.String(), Wakeups: info.wakeups, Detours: info.detours}
	}
	return payload, meta, err
}

// task is a resolved, runnable job body: the content-address key of the
// fully-filled config plus the closure that executes it and marshals the
// result. traced marks jobs recording a cycle-level event trace: their
// key carries a "+trace" kind suffix so they never coalesce with (or get
// served from the cache of) untraced runs, which would have no events to
// stream.
type task struct {
	kind   string
	key    string
	traced bool
	run    func(ctx context.Context, opt sim.RunOptions) ([]byte, *runInfo, error)

	// src is the submission the task was resolved from (a *JobRequest, or
	// a filled search.Spec); request marshals it on first use.
	src     any
	reqOnce sync.Once
	req     []byte
}

// request returns the submission re-marshalled: the unit a fleet
// coordinator ships to workers (which re-resolve it locally) and writes
// to its journal, and the body a search reports per evaluation. A local
// server never asks, so a cache hit never pays for it. The marshal cannot
// fail: src is plain data whose floats the cache key already proved
// finite.
func (t *task) request() []byte {
	t.reqOnce.Do(func() { t.req, _ = json.Marshal(t.src) })
	return t.req
}

// taskKey derives the content-address key, isolating traced jobs in their
// own key space.
func taskKey(kind string, traced bool, cfg any) (string, error) {
	if traced {
		kind += "+trace"
	}
	return CacheKey(kind, cfg)
}

// resolveTask validates a request and resolves it into a task. Errors are
// client errors (HTTP 400).
func resolveTask(req *JobRequest) (*task, error) {
	t, err := resolveSpec(req)
	if err != nil {
		return nil, err
	}
	t.src = req
	return t, nil
}

func resolveSpec(req *JobRequest) (*task, error) {
	switch req.Kind {
	case "synthetic":
		if req.Synthetic == nil {
			return nil, fmt.Errorf("kind %q needs a \"synthetic\" spec", req.Kind)
		}
		return req.Synthetic.resolve()
	case "workload":
		if req.Workload == nil {
			return nil, fmt.Errorf("kind %q needs a \"workload\" spec", req.Kind)
		}
		return req.Workload.resolve()
	case "trace":
		if req.Trace == nil {
			return nil, fmt.Errorf("kind %q needs a \"trace\" spec", req.Kind)
		}
		return req.Trace.resolve()
	case "sweep":
		if req.Sweep == nil {
			return nil, fmt.Errorf("kind %q needs a \"sweep\" spec", req.Kind)
		}
		return req.Sweep.resolve()
	case "":
		return nil, fmt.Errorf("missing job kind (synthetic, workload, trace, sweep)")
	default:
		return nil, fmt.Errorf("unknown job kind %q (synthetic, workload, trace, sweep)", req.Kind)
	}
}

func (sp *SyntheticSpec) resolve() (*task, error) {
	design, err := noc.DesignByName(sp.Design)
	if err != nil {
		return nil, err
	}
	if sp.Rate < 0 || sp.Rate > 1 {
		return nil, fmt.Errorf("rate %g outside [0, 1] flits/node/cycle", sp.Rate)
	}
	if sp.Measure < 0 {
		return nil, fmt.Errorf("negative cycle count")
	}
	warmup, err := warmupValue(sp.Warmup)
	if err != nil {
		return nil, err
	}
	if sp.Pattern != "" {
		if _, err := traffic.PatternByName(sp.Pattern); err != nil {
			return nil, err
		}
	}
	if sp.VCs < 0 || sp.BufferDepth < 0 || sp.GateIdle < 0 ||
		sp.ThresholdPerf < 0 || sp.ThresholdPower < 0 {
		return nil, fmt.Errorf("negative microarchitecture knob (vcs, buffer_depth, gate_idle, threshold_perf, threshold_power must be >= 0)")
	}
	cfg := sim.SynthConfig{
		Design:         design,
		Width:          sp.Width,
		Height:         sp.Height,
		Topology:       sp.Topology,
		Pattern:        sp.Pattern,
		Rate:           sp.Rate,
		Warmup:         warmup,
		Measure:        sp.Measure,
		Seed:           sp.Seed,
		WakeupLatency:  sp.WakeupLatency,
		NoPerfCentric:  sp.NoPerfCentric,
		ForcedOff:      sp.ForcedOff,
		VCsPerClass:    sp.VCs,
		BufferDepth:    sp.BufferDepth,
		GateIdleCycles: sp.GateIdle,
		ThresholdPerf:  sp.ThresholdPerf,
		ThresholdPower: sp.ThresholdPower,
	}.Filled()
	// Topology, grid and VC bounds are noc's rules: ask it.
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	key, err := taskKey("synthetic", sp.TraceEvents, cfg)
	if err != nil {
		return nil, err
	}
	return &task{kind: "synthetic", key: key, traced: sp.TraceEvents, run: func(ctx context.Context, opt sim.RunOptions) ([]byte, *runInfo, error) {
		return encodeResult(sim.RunSyntheticOpts(ctx, cfg, opt))
	}}, nil
}

// syntheticSpecFor converts a filled SynthConfig back into its wire
// spec — the search layer's bridge from genome-decoded candidates to
// ordinary job submissions. Re-resolving the returned spec reproduces
// the same filled config (and therefore the same cache key), because
// Filled is idempotent and the search decoder only sets fields the wire
// spec can express: a search child and a direct POST of the same point
// are one job (TestSearchChildSharesDirectKey).
func syntheticSpecFor(cfg sim.SynthConfig) *SyntheticSpec {
	warmup := cfg.Warmup
	if warmup < 0 {
		warmup = 0
	}
	return &SyntheticSpec{
		Design:         cfg.Design.String(),
		Width:          cfg.Width,
		Height:         cfg.Height,
		Topology:       cfg.Topology,
		Pattern:        cfg.Pattern,
		Rate:           cfg.Rate,
		Warmup:         &warmup,
		Measure:        cfg.Measure,
		Seed:           cfg.Seed,
		WakeupLatency:  cfg.WakeupLatency,
		NoPerfCentric:  cfg.NoPerfCentric,
		ForcedOff:      cfg.ForcedOff,
		VCs:            cfg.VCsPerClass,
		BufferDepth:    cfg.BufferDepth,
		GateIdle:       cfg.GateIdleCycles,
		ThresholdPerf:  cfg.ThresholdPerf,
		ThresholdPower: cfg.ThresholdPower,
	}
}

func (sp *WorkloadSpec) resolve() (*task, error) {
	design, err := noc.DesignByName(sp.Design)
	if err != nil {
		return nil, err
	}
	if _, err := memsys.ProfileByName(sp.Benchmark); err != nil {
		return nil, err
	}
	if sp.Scale < 0 {
		return nil, fmt.Errorf("negative scale %g", sp.Scale)
	}
	warmup, err := warmupValue(sp.Warmup)
	if err != nil {
		return nil, err
	}
	cfg := sim.WorkloadConfig{
		Design:    design,
		Benchmark: sp.Benchmark,
		Scale:     sp.Scale,
		Warmup:    warmup,
		Seed:      sp.Seed,
		MaxCycles: sp.MaxCycles,
	}.Filled()
	key, err := taskKey("workload", sp.TraceEvents, cfg)
	if err != nil {
		return nil, err
	}
	return &task{kind: "workload", key: key, traced: sp.TraceEvents, run: func(ctx context.Context, opt sim.RunOptions) ([]byte, *runInfo, error) {
		return encodeResult(sim.RunWorkloadOpts(ctx, cfg, opt))
	}}, nil
}

func (sp *TraceSpec) resolve() (*task, error) {
	design, err := noc.DesignByName(sp.Design)
	if err != nil {
		return nil, err
	}
	if sp.Path == "" {
		return nil, fmt.Errorf("trace path required")
	}
	warmup, err := warmupValue(sp.Warmup)
	if err != nil {
		return nil, err
	}
	cfg := sim.TraceConfig{
		Design:    design,
		Path:      sp.Path,
		Warmup:    warmup,
		Seed:      sp.Seed,
		MaxCycles: sp.MaxCycles,
	}.Filled()
	key, err := taskKey("trace", sp.TraceEvents, cfg)
	if err != nil {
		return nil, err
	}
	return &task{kind: "trace", key: key, traced: sp.TraceEvents, run: func(ctx context.Context, opt sim.RunOptions) ([]byte, *runInfo, error) {
		tr, err := trace.Load(cfg.Path)
		if err != nil {
			return nil, nil, err
		}
		return encodeResult(sim.ReplayTraceOpts(ctx, cfg, tr, opt))
	}}, nil
}

func (sp *SweepSpec) resolve() (*task, error) {
	if len(sp.Rates) == 0 {
		return nil, fmt.Errorf("sweep needs at least one rate")
	}
	if len(sp.Rates) > maxSweepRates {
		return nil, fmt.Errorf("sweep has %d rates, limit %d", len(sp.Rates), maxSweepRates)
	}
	for _, r := range sp.Rates {
		if r < 0 || r > 1 {
			return nil, fmt.Errorf("rate %g outside [0, 1] flits/node/cycle", r)
		}
	}
	// The key hashes the filled sim config: SweepConfig carries exactly
	// SweepSpec's fields under the same Go names, so keys minted before the
	// two types were split stay valid (TestCacheKeyGolden pins one).
	cfg := sim.SweepConfig(*sp).Filled()
	if _, err := traffic.PatternByName(cfg.Pattern); err != nil {
		return nil, err
	}
	// Every design's points run on this grid; noc owns its bounds.
	for _, d := range sim.SweepDesigns() {
		if err := (sim.SynthConfig{Design: d, Width: cfg.Width, Height: cfg.Height}).Validate(); err != nil {
			return nil, err
		}
	}
	key, err := CacheKey("sweep", cfg)
	if err != nil {
		return nil, err
	}
	return &task{kind: "sweep", key: key, run: func(ctx context.Context, opt sim.RunOptions) ([]byte, *runInfo, error) {
		pts, err := sim.LoadSweep(ctx, cfg)
		if err != nil {
			return nil, nil, err
		}
		b, err := json.Marshal(pts)
		return b, nil, err
	}}, nil
}
