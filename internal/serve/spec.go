package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"nord/internal/noc"
	"nord/internal/sim"
	"nord/internal/trace"
)

// JobRequest is the POST /v1/jobs body: a kind plus the matching spec.
type JobRequest struct {
	Kind      string         `json:"kind"`
	Synthetic *SyntheticSpec `json:"synthetic,omitempty"`
	Workload  *WorkloadSpec  `json:"workload,omitempty"`
	Trace     *TraceSpec     `json:"trace,omitempty"`
	// Sweep is sim's own config: a sweep has no wire-only field, so its
	// body is sim.SweepConfig's JSON form.
	Sweep *sim.SweepConfig `json:"sweep,omitempty"`
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

// designWarmup parses the two fields every single-run spec carries on
// the wire: the design name, and the optional warmup mapped onto the sim
// layer's convention — omitted means "use the design default" (encoded
// as 0), an explicit 0 means "no warmup" (the sim.ZeroWarmup sentinel),
// and negatives are client errors.
func designWarmup(name string, w *int) (noc.Design, int, error) {
	d, err := noc.DesignByName(name)
	switch {
	case err != nil:
		return d, 0, err
	case w == nil:
		return d, 0, nil
	case *w < 0:
		return d, 0, fmt.Errorf("negative warmup %d", *w)
	case *w == 0:
		return d, sim.ZeroWarmup, nil
	}
	return d, *w, nil
}

// RunMeta carries a completed run's headline counters back to the server
// for the per-design Prometheus series (nil for sweeps, whose cells span
// designs). A fleet worker reports it alongside its payload, so the
// coordinator's per-design metrics match what a local run would have
// recorded.
type RunMeta struct {
	Design  string `json:"design,omitempty"`
	Wakeups uint64 `json:"wakeups,omitempty"`
	Detours uint64 `json:"detours,omitempty"`
}

// encodeResult turns a finished single run into its cacheable payload
// and headline counters. A run that failed produces neither, whatever
// partial Result came with the error.
func encodeResult(r sim.Result, err error) ([]byte, *RunMeta, error) {
	if err != nil {
		return nil, nil, err
	}
	b, err := json.Marshal(r)
	return b, &RunMeta{Design: r.Design.String(), Wakeups: r.Wakeups, Detours: r.Misroutes}, err
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
	return t.run(ctx, opt)
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
	run    func(ctx context.Context, opt sim.RunOptions) ([]byte, *RunMeta, error)

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

// newTask keys a resolved, filled config and pairs it with its runner.
func newTask(kind string, traced bool, cfg any, run func(context.Context, sim.RunOptions) ([]byte, *RunMeta, error)) (*task, error) {
	key, err := taskKey(kind, traced, cfg)
	if err != nil {
		return nil, err
	}
	return &task{kind: kind, key: key, traced: traced, run: run}, nil
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
		if req.Synthetic != nil {
			return req.Synthetic.resolve()
		}
	case "workload":
		if req.Workload != nil {
			return req.Workload.resolve()
		}
	case "trace":
		if req.Trace != nil {
			return req.Trace.resolve()
		}
	case "sweep":
		if req.Sweep != nil {
			return resolveSweep(*req.Sweep)
		}
	case "":
		return nil, fmt.Errorf("missing job kind (synthetic, workload, trace, sweep)")
	default:
		return nil, fmt.Errorf("unknown job kind %q (synthetic, workload, trace, sweep)", req.Kind)
	}
	return nil, fmt.Errorf("kind %q needs a %q spec", req.Kind, req.Kind)
}

func (sp *SyntheticSpec) resolve() (*task, error) {
	design, warmup, err := designWarmup(sp.Design, sp.Warmup)
	if err != nil {
		return nil, err
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
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newTask("synthetic", sp.TraceEvents, cfg, func(ctx context.Context, opt sim.RunOptions) ([]byte, *RunMeta, error) {
		return encodeResult(sim.RunSyntheticOpts(ctx, cfg, opt))
	})
}

// syntheticSpecFor converts a filled SynthConfig back into its wire
// spec — the search layer's bridge from genome-decoded candidates to
// ordinary job submissions. Re-resolving the returned spec reproduces
// the same filled config (and therefore the same cache key), because
// Filled is idempotent and the search decoder only sets fields the wire
// spec can express: a search child and a direct POST of the same point
// are one job (TestSearchChildSharesDirectKey).
func syntheticSpecFor(cfg sim.SynthConfig) *SyntheticSpec {
	warmup := max(cfg.Warmup, 0)
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
	design, warmup, err := designWarmup(sp.Design, sp.Warmup)
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
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newTask("workload", sp.TraceEvents, cfg, func(ctx context.Context, opt sim.RunOptions) ([]byte, *RunMeta, error) {
		return encodeResult(sim.RunWorkloadOpts(ctx, cfg, opt))
	})
}

func (sp *TraceSpec) resolve() (*task, error) {
	design, warmup, err := designWarmup(sp.Design, sp.Warmup)
	if err != nil {
		return nil, err
	}
	if sp.Path == "" {
		return nil, fmt.Errorf("trace path required")
	}
	cfg := sim.TraceConfig{
		Design:    design,
		Path:      sp.Path,
		Warmup:    warmup,
		Seed:      sp.Seed,
		MaxCycles: sp.MaxCycles,
	}.Filled()
	// An unreadable file keys as "" and its run reports why.
	_, sum, _ := readTrace(cfg.Path)
	return newTask("trace", sp.TraceEvents, traceKey{Config: cfg, SHA256: sum}, func(ctx context.Context, opt sim.RunOptions) ([]byte, *RunMeta, error) {
		b, got, err := readTrace(cfg.Path)
		if err == nil && got != sum {
			// Not the bytes the job was keyed by: caching this run under
			// that key would serve a stale result for the new file.
			err = fmt.Errorf("trace file %s changed since the job was submitted", cfg.Path)
		}
		if err != nil {
			return nil, nil, err
		}
		tr, err := trace.Decode(cfg.Path, bytes.NewReader(b))
		if err != nil {
			return nil, nil, err
		}
		return encodeResult(sim.ReplayTraceOpts(ctx, cfg, tr, opt))
	})
}

// traceKey is what a trace replay's cache key covers: the filled config
// and the sha256 of the trace file's bytes, so a file rewritten in place
// names a new simulation rather than the old file's cached result.
type traceKey struct {
	Config sim.TraceConfig
	SHA256 string
}

// readTrace reads the trace file at path and its hex sha256. Only a
// regular file is read: a device such as /dev/zero would never end.
func readTrace(path string) ([]byte, string, error) {
	st, err := os.Stat(path)
	if err == nil && !st.Mode().IsRegular() {
		err = fmt.Errorf("trace path %s is not a regular file", path)
	}
	var b []byte
	if err == nil {
		b, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(b)
	return b, hex.EncodeToString(sum[:]), nil
}

func resolveSweep(cfg sim.SweepConfig) (*task, error) {
	if len(cfg.Rates) > maxSweepRates {
		return nil, fmt.Errorf("sweep has %d rates, limit %d", len(cfg.Rates), maxSweepRates)
	}
	cfg = cfg.Filled()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The key hashes the filled config's Go field names, not its JSON
	// tags (TestCacheKeyGolden pins one).
	return newTask("sweep", false, cfg, func(ctx context.Context, opt sim.RunOptions) ([]byte, *RunMeta, error) {
		pts, err := sim.LoadSweep(ctx, cfg)
		if err != nil {
			return nil, nil, err
		}
		b, err := json.Marshal(pts)
		return b, nil, err
	})
}
