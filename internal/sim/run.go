// Package sim is the experiment harness: it configures and runs single
// simulations (synthetic or full-system PARSEC-like workloads), converts
// the raw collectors into per-run Results, and provides one driver per
// table and figure of the paper's evaluation (Figures 1, 3, 6-15 and the
// Section 6.8 area comparison).
package sim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"nord/internal/fault"
	"nord/internal/flit"
	"nord/internal/memsys"
	"nord/internal/noc"
	"nord/internal/power"
	"nord/internal/topology"
	"nord/internal/trace"
	"nord/internal/traffic"
)

// Result is the outcome of one simulation run.
type Result struct {
	Design noc.Design
	Label  string // workload or sweep-point label
	Nodes  int
	Cycles uint64

	AvgPacketLatency  float64
	LatencyP50        uint64
	LatencyP95        uint64
	LatencyP99        uint64
	AvgNetworkLatency float64
	AvgHops           float64
	Throughput        float64 // delivered flits/node/cycle
	PacketsDelivered  uint64

	IdleFraction float64
	IdleLEBET    float64 // fraction of idle periods <= breakeven time
	OffFraction  float64
	Wakeups      uint64
	GateOffs     uint64
	Misroutes    uint64
	Escapes      uint64
	VCReqWindow  float64 // mean VC requests per wakeup window per node

	Energy    power.Breakdown
	AvgPowerW float64

	// Full-system runs only.
	ExecTime  uint64
	L1HitRate float64

	// Routers holds per-router spatial statistics (utilisation, gating,
	// bypass usage per mesh position); a column table on the wire.
	Routers RouterTable

	// Fault is the fault-injection recovery accounting, nil when no
	// schedule was armed.
	Fault *fault.Report
	// Err records the structured failure of a faulted or deadlocked run
	// (empty on success), so sweeps can keep going past failed cells.
	Err string
}

// StaticEnergy returns the router static energy (the Figure 8 metric).
func (r Result) StaticEnergy() float64 { return r.Energy.RouterStatic }

// ZeroWarmup is the sentinel for an explicit zero-cycle warmup. The
// config Warmup fields keep "0 means the paper's default" for backward
// compatibility (and stable cache keys), so a literal 0 cannot express
// "no warmup"; pass ZeroWarmup instead. fill() leaves the sentinel in
// place — a filled config fills to itself and hashes apart from the
// default — and warmupCycles clamps it where the count is read.
const ZeroWarmup = -1

// warmupCycles is a filled config's Warmup as a cycle count.
func warmupCycles(w int) uint64 { return uint64(max(w, 0)) }

// SynthConfig configures a synthetic-traffic run.
type SynthConfig struct {
	Design        noc.Design
	Width, Height int
	// Topology selects the interconnect: "mesh" (default), "torus" (wrap
	// links with dateline escape VCs) or "cmesh" (concentrated mesh, 4
	// terminals per router). Width/Height always size the ROUTER grid;
	// cmesh exposes a 2Wx2H terminal grid on top of it.
	Topology      string
	Pattern       string  // uniform, bitcomp, transpose, tornado
	Rate          float64 // flits/node/cycle
	Warmup        int     // cycles before measurement (paper: 10,000)
	Measure       int     // measured cycles (paper: 100,000)
	Seed          int64
	WakeupLatency int  // 0 selects the paper's 12 cycles
	ForcedOff     bool // Figure 7 mode
	Tech          power.Tech
	// VCsPerClass / BufferDepth size the router microarchitecture when
	// positive (Table 1 defaults: 4 VCs per class, 5-flit buffers; NoRD
	// needs >= 3 VCs for its ring escape pair).
	VCsPerClass int
	BufferDepth int
	// GateIdleCycles overrides the consecutive-idle-cycle count a router
	// requires before gating off when positive (Section 4.3: 2).
	GateIdleCycles int
	// NoPerfCentric disables the asymmetric-threshold planner (ablation).
	NoPerfCentric bool
	// ThresholdPerf/ThresholdPower override the wakeup thresholds when
	// positive (ablation; noc.DefaultParams sets 1 and 6 — the paper's
	// 1 and 3 recalibrated to this simulator's blocked-request metric).
	ThresholdPerf, ThresholdPower int
	// MisrouteCap overrides the NoRD misroute cap when non-negative.
	MisrouteCap int
	// TwoStageRouter shortens the router pipeline to 2 stages
	// (Section 6.8's look-ahead + speculative-SA baseline).
	TwoStageRouter bool
	// AggressiveBypass enables NoRD's 1-cycle combinational bypass
	// (Section 6.8).
	AggressiveBypass bool
	// DynamicClassify replaces the fixed planner class with demand-ranked
	// reclassification (the Section 4.4 future-work extension).
	DynamicClassify bool
	// Faults optionally arms a generated fault schedule. A zero Horizon
	// defaults to Warmup+Measure so events spread over the whole run.
	Faults *fault.Config
	// FaultSchedule arms an explicit schedule instead (overrides Faults).
	FaultSchedule *fault.Schedule
	// FaultOptions tunes the recovery machinery (zero = defaults).
	FaultOptions noc.FaultOptions
	// WatchdogLimit overrides the deadlock-watchdog horizon in cycles
	// (0 = the 50k default); fault tests lower it to fail fast.
	WatchdogLimit int
	// DrainCycles bounds the post-measurement drain of faulted runs
	// (default 50,000), which lets pending retransmissions resolve so the
	// recovery accounting is complete.
	DrainCycles int
}

// fill is the one canonicaliser: it answers "which simulation does this
// spelling name" for every layer above (serve's cache keys, search's
// candidate identity, the CLIs), so two configs that fill alike run
// alike and two that fill apart may not. Beyond resolving defaults
// (noc.DefaultParams owns the Table 1 values) it folds the two kinds of
// alias: a knob whose zero form means "the default", spelled at that
// default, goes back to its zero form; and a knob the design or mode
// never reads goes to the form the default spelling has. Every rule
// below is proved from runs by TestAliasesRunIdentically.
func (c *SynthConfig) fill() {
	d := noc.DefaultParams(c.Design)
	if c.Width == 0 {
		c.Width = d.Width
	}
	if c.Height == 0 {
		c.Height = d.Height
	}
	// "" and the aliases ("concentrated"); params reports an unknown name.
	if kind, err := topology.KindByName(c.Topology); err == nil {
		c.Topology = kind.String()
	}
	if c.Pattern == "" {
		c.Pattern = "uniform"
	}
	if c.Warmup == 0 {
		c.Warmup = 10_000
	}
	if c.Measure == 0 {
		c.Measure = 100_000
	}
	if c.Tech == (power.Tech{}) {
		c.Tech = power.DefaultTech()
	}
	if c.VCsPerClass == 0 {
		c.VCsPerClass = d.VCsPerClass
	}
	if c.BufferDepth == 0 {
		c.BufferDepth = d.BufferDepth
	}
	if c.DrainCycles == 0 {
		c.DrainCycles = 50_000
	}

	// Who reads what: only gated designs have a PG controller, and a
	// forced-off NoRD router never wakes (so never gates off again);
	// only NoRD has the ring, the misroute cap and the two NI wakeup
	// classes, which matter while routers can wake or are re-ranked.
	blocks := c.Design.Blocks()
	gated, ring := blocks.PGSwitch, blocks.Bypass
	c.ForcedOff = c.ForcedOff && gated
	wakes := gated && !(ring && c.ForcedOff)
	classed := ring && (wakes || c.DynamicClassify)
	if !wakes || c.WakeupLatency == d.WakeupLatency {
		c.WakeupLatency = 0
	}
	if !wakes || c.GateIdleCycles == 0 {
		c.GateIdleCycles = d.GateIdleCycles
	}
	if !classed || c.ThresholdPerf == d.ThresholdPerf {
		c.ThresholdPerf = 0
	}
	if !classed || c.ThresholdPower == d.ThresholdPower {
		c.ThresholdPower = 0
	}
	c.NoPerfCentric = c.NoPerfCentric && ring && !c.ForcedOff
	if !ring || c.MisrouteCap == 0 || c.MisrouteCap == d.MisrouteCap {
		c.MisrouteCap = -1
	}
	c.AggressiveBypass = c.AggressiveBypass && ring
	c.DynamicClassify = c.DynamicClassify && ring
}

// Filled returns the canonical form of the config (see fill): every
// default resolved, every alias folded. It is what the serve layer
// encodes and hashes for its content-addressed result cache, and a
// fixed point — a filled config fills to itself.
func (c SynthConfig) Filled() SynthConfig {
	c.fill()
	return c
}

// perfCache memoises the planner's sets for grids the plan table
// (topology.StandardPlan) does not hold, per router graph and size.
var perfCache sync.Map // perfKey -> *perfEntry

type perfKey struct {
	kind topology.Kind
	w, h int
}

// perfEntry is one memo slot. Callers that miss together queue on mu
// behind the first, so a grid is searched once however many simulations
// start on it at the same time (and the search, which spreads over every
// core, never competes with a copy of itself).
type perfEntry struct {
	mu  sync.Mutex
	set atomic.Pointer[[]int] // nil until a search has succeeded
}

// perfSearches counts planner searches actually run; tests read it.
var perfSearches atomic.Int64

// PerfCentricSet returns the performance-centric routers for a WxH mesh
// (see PerfCentricSetOn).
func PerfCentricSet(w, h int) ([]int, error) {
	return PerfCentricSetOn(topology.KindMesh, w, h)
}

// PerfCentricSetOn returns the performance-centric routers for a WxH
// router grid of the given topology: the exhaustively optimal 6-router
// set for the paper's 4x4 example, and a greedy 3N/8-router set for
// larger grids (Section 4.4). The planner evaluates bypass-ring detour
// cost on the actual topology, so torus wrap links shorten the detours
// it optimises against.
//
// The plan is a design-time artefact: for the square grids up to 16x16 it
// is a lookup in the committed plan table (topology.StandardPlan); any
// other grid is planned on first use, once per process. The returned slice is
// shared: do not modify it.
func PerfCentricSetOn(kind topology.Kind, w, h int) ([]int, error) {
	// A concentrated mesh has the mesh's router graph, hence its plan:
	// one table entry, one memo entry, one search.
	kind = kind.RouterGraph()
	if set, ok := topology.StandardPlan(kind, w, h); ok {
		return set, nil
	}
	key := perfKey{kind, w, h}
	v, ok := perfCache.Load(key)
	if !ok {
		v, _ = perfCache.LoadOrStore(key, new(perfEntry))
	}
	e := v.(*perfEntry)
	if set := e.set.Load(); set != nil {
		return *set, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if set := e.set.Load(); set != nil {
		return *set, nil
	}
	perfSearches.Add(1)
	set, err := topology.DefaultPlan(kind, w, h)
	if err != nil {
		// Failures are not memoised, and leave no entry behind.
		perfCache.CompareAndDelete(key, v)
		return nil, err
	}
	e.set.Store(&set)
	return set, nil
}

// Validate reports whether noc.New would accept the network c describes
// (grid and VC bounds, topology, the design's minimum VC count), without
// running the planner: what a front end checks before queueing a run.
func (c SynthConfig) Validate() error {
	c.fill()
	_, err := c.params(1)
	return err
}

// params assembles and validates the noc parameters of a filled config,
// all but the planner's performance-centric set — so a network noc.New
// would refuse never costs a cold planner search first.
func (c *SynthConfig) params(classes int) (noc.Params, error) {
	p := noc.DefaultParams(c.Design)
	p.Width, p.Height = c.Width, c.Height
	p.Classes = classes
	kind, err := topology.KindByName(c.Topology)
	if err != nil {
		return p, err
	}
	p.Topology = kind
	if c.WakeupLatency > 0 {
		p.WakeupLatency = c.WakeupLatency
	}
	if c.VCsPerClass > 0 {
		p.VCsPerClass = c.VCsPerClass
	}
	if c.BufferDepth > 0 {
		p.BufferDepth = c.BufferDepth
	}
	if c.GateIdleCycles > 0 {
		p.GateIdleCycles = c.GateIdleCycles
	}
	p.ForcedOff = c.ForcedOff
	if c.ThresholdPerf > 0 {
		p.ThresholdPerf = c.ThresholdPerf
	}
	if c.ThresholdPower > 0 {
		p.ThresholdPower = c.ThresholdPower
	}
	if c.MisrouteCap >= 0 {
		p.MisrouteCap = c.MisrouteCap
	}
	p.TwoStageRouter = c.TwoStageRouter
	p.AggressiveBypass = c.AggressiveBypass
	p.DynamicClassify = c.DynamicClassify
	p.WatchdogLimit = c.WatchdogLimit
	return p, p.Validate()
}

// RunSyntheticOpts executes one synthetic-traffic simulation. With a
// fault schedule armed (Faults or FaultSchedule), the run drains in-flight
// traffic and pending retransmissions after the measurement window so the
// recovery accounting in Result.Fault is complete. A structured failure
// (deadlock, partition, protocol violation, cancellation — ctx is polled
// every opt.CheckEvery cycles) is returned as the error AND recorded in
// Result.Err alongside whatever statistics were gathered, so sweeps can
// tabulate failed cells instead of dying.
func RunSyntheticOpts(ctx context.Context, c SynthConfig, opt RunOptions) (Result, error) {
	return synthRun(ctx, c, opt, nil)
}

// tap reads the running session after every every-th measured cycle: how
// the samplers (PowerTimeSeries, WatchStates) ride an ordinary run.
type tap struct {
	every int
	read  func(*session)
}

func synthRun(ctx context.Context, c SynthConfig, opt RunOptions, t *tap) (Result, error) {
	c.fill()
	return runFilled(ctx, c, opt, t)
}

// runFilled runs c exactly as spelled. It is apart from synthRun so that
// TestAliasesRunIdentically can run a spelling fill would have folded.
func runFilled(ctx context.Context, c SynthConfig, opt RunOptions, t *tap) (Result, error) {
	pattern, err := traffic.PatternByName(c.Pattern)
	if err != nil {
		return Result{}, err
	}
	s, err := open(ctx, c, 1, opt)
	if err != nil {
		return Result{}, err
	}
	defer s.net.Close()
	warmup := warmupCycles(c.Warmup)
	s.total = warmup + uint64(c.Measure)
	sched := c.FaultSchedule
	if sched == nil && c.Faults != nil {
		fc := *c.Faults
		if fc.Horizon == 0 {
			fc.Horizon = s.total
		}
		if sched, err = fault.Generate(fc, s.net.Topo().N()); err != nil {
			return Result{}, err
		}
	}
	if sched != nil {
		if err := s.net.AttachFaults(sched, c.FaultOptions); err != nil {
			return Result{}, err
		}
	}
	s.inject = traffic.NewSynthetic(s.net, pattern, c.Rate, c.Seed).Tick

	s.phase("warmup", s.before(warmup))
	s.begin()
	if t != nil {
		measured := 0
		s.after = func() {
			if measured++; measured%t.every == 0 {
				t.read(s)
			}
		}
	}
	s.phase("measure", s.before(s.total))
	s.inject, s.after = nil, nil
	if sched != nil {
		// Let retransmissions and in-flight traffic resolve so every
		// injected payload is accounted delivered or lost.
		end := s.net.Cycle() + uint64(c.DrainCycles)
		s.phase("drain", func() bool { return !s.net.Quiescent() && s.net.Cycle() < end })
		if !s.net.Quiescent() {
			s.fail(fmt.Errorf("sim: %d packets still in flight after %d drain cycles", s.net.InFlight(), c.DrainCycles))
		}
	}
	return s.close(fmt.Sprintf("%s@%.3f", c.Pattern, c.Rate))
}

// WorkloadConfig configures a full-system PARSEC-like run.
type WorkloadConfig struct {
	Design    noc.Design
	Benchmark string
	// Scale multiplies the per-core instruction quota (1.0 = the
	// default 60k instructions; tests and benches use smaller values).
	Scale         float64
	Warmup        int // warmup cycles before measurement
	Seed          int64
	WakeupLatency int
	MaxCycles     uint64
	Tech          power.Tech
	NoPerfCentric bool
}

func (c *WorkloadConfig) fill() {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Warmup == 0 {
		c.Warmup = 5_000
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 200_000_000
	}
	if c.Tech == (power.Tech{}) {
		c.Tech = power.DefaultTech()
	}
}

// Filled returns the config with every defaulted field resolved (see
// SynthConfig.Filled).
func (c WorkloadConfig) Filled() WorkloadConfig {
	c.fill()
	return c
}

// RunWorkloadOpts executes one PARSEC-like full-system simulation to
// completion and returns its Result (including execution time). Failures
// are reported as in RunSyntheticOpts.
func RunWorkloadOpts(ctx context.Context, c WorkloadConfig, opt RunOptions) (Result, error) {
	_, res, err := systemRun(ctx, c, opt, false)
	return res, err
}

// RecordWorkloadTrace runs a full-system workload once, measuring from
// cycle 0 (no warmup), and returns the trace of every packet it injected,
// for later replay. The trace is nil when the run failed.
func RecordWorkloadTrace(c WorkloadConfig) (*trace.Trace, Result, error) {
	c.Warmup = ZeroWarmup
	return systemRun(context.Background(), c, RunOptions{}, true)
}

// systemNet is the network every full-system run and trace replay uses:
// the paper's defaults plus the few knobs those configs expose.
func systemNet(d noc.Design, wakeupLatency int, noPerfCentric bool, tech power.Tech) SynthConfig {
	sc := SynthConfig{Design: d, WakeupLatency: wakeupLatency, NoPerfCentric: noPerfCentric, Tech: tech}
	sc.fill()
	return sc
}

func systemRun(ctx context.Context, c WorkloadConfig, opt RunOptions, record bool) (*trace.Trace, Result, error) {
	c.fill()
	prof, err := memsys.ProfileByName(c.Benchmark)
	if err != nil {
		return nil, Result{}, err
	}
	prof.InstrPerCore = max(1, uint64(float64(float64(prof.InstrPerCore)*c.Scale)))
	s, err := open(ctx, systemNet(c.Design, c.WakeupLatency, c.NoPerfCentric, c.Tech), flit.NumClasses, opt)
	if err != nil {
		return nil, Result{}, err
	}
	defer s.net.Close()
	var rec *trace.Recorder
	if record {
		rec = trace.NewRecorder(s.net.Topo().N())
		s.net.SetInjectHook(rec.Hook)
	}
	sys, err := memsys.NewSystem(s.net, prof, c.Seed)
	if err != nil {
		return nil, Result{}, err
	}
	// exec is the cycle the last core retired its quota, 0 until then.
	var exec uint64
	s.step = func() error {
		err := sys.Step()
		if err == nil && sys.Done() {
			exec = s.net.Cycle()
		}
		return err
	}
	running := func(limit uint64) func() bool {
		return func() bool { return exec == 0 && s.net.Cycle() < limit }
	}

	s.phase("warmup", running(warmupCycles(c.Warmup)))
	s.begin()
	// A workload that finished inside the warmup still measures one cycle
	// (the result goldens pin it): the measured window is never empty.
	exec = 0
	s.phase("measure", running(c.MaxCycles))
	if exec == 0 {
		s.fail(fmt.Errorf("sim: workload %q did not finish within %d cycles", c.Benchmark, c.MaxCycles))
	}
	res, err := s.close(c.Benchmark)
	res.ExecTime = exec
	res.L1HitRate = sys.L1HitRate()
	if err != nil || !record {
		return nil, res, err
	}
	return rec.Trace(), res, nil
}

// TraceConfig configures a trace-replay run: the recorded injections of
// some workload are replayed open-loop onto a (possibly different)
// design — the standard trace-driven methodology for comparing designs
// on identical traffic.
type TraceConfig struct {
	Design noc.Design
	Path   string // trace file (.gz supported)
	Warmup int    // cycles of the trace treated as warmup
	// Seed is accepted and ignored: a replay draws no random number, so
	// fill folds it to 0 and every seed names the one simulation.
	Seed          int64
	WakeupLatency int
	Tech          power.Tech
	NoPerfCentric bool
	MaxCycles     uint64
}

func (c *TraceConfig) fill() {
	c.Seed = 0
	if c.Warmup < 0 {
		// TraceConfig.Warmup has no implicit default, so the ZeroWarmup
		// sentinel simply normalises to 0.
		c.Warmup = 0
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 100_000_000
	}
	if c.Tech == (power.Tech{}) {
		c.Tech = power.DefaultTech()
	}
}

// Filled returns the config with every defaulted field resolved (see
// SynthConfig.Filled).
func (c TraceConfig) Filled() TraceConfig {
	c.fill()
	return c
}

// ReplayTrace replays an already-loaded trace to completion.
func ReplayTrace(c TraceConfig, tr *trace.Trace) (Result, error) {
	return ReplayTraceOpts(context.Background(), c, tr, RunOptions{})
}

// ReplayTraceOpts is ReplayTrace with cancellation, progress reporting and
// tunable poll intervals. Failures (including a replay that outlives
// MaxCycles) are reported as in RunSyntheticOpts.
func ReplayTraceOpts(ctx context.Context, c TraceConfig, tr *trace.Trace, opt RunOptions) (Result, error) {
	c.fill()
	sc := systemNet(c.Design, c.WakeupLatency, c.NoPerfCentric, c.Tech)
	// Mesh dimensions must cover the trace's nodes: assume square.
	side := 2
	for side*side < tr.Nodes {
		side++
	}
	if side*side != tr.Nodes {
		return Result{}, fmt.Errorf("sim: trace has %d nodes; only square meshes are supported", tr.Nodes)
	}
	sc.Width, sc.Height = side, side
	s, err := open(ctx, sc, flit.NumClasses, opt)
	if err != nil {
		return Result{}, err
	}
	defer s.net.Close()
	rep := trace.NewReplayer(s.net, tr)
	s.inject = rep.Tick

	s.phase("warmup", s.before(uint64(c.Warmup)))
	s.begin()
	s.phase("measure", func() bool {
		return (!rep.Done() || s.net.InFlight() > 0) && s.net.Cycle() < c.MaxCycles
	})
	if !rep.Done() {
		s.fail(fmt.Errorf("sim: trace replay did not finish within %d cycles", c.MaxCycles))
	}
	return s.close("trace:" + c.Path)
}

// collect converts a finished network's statistics into a Result.
func collect(net *noc.Network, model *power.Model) Result {
	col := net.Collector()
	p := net.Params()
	routers := p.NumNodes()
	// Injection endpoints: equals the router count except on the
	// concentrated mesh, where each router serves 4 terminals. Per-node
	// rates (throughput) are per terminal; the power model and the NI
	// wakeup metric stay per router.
	nodes := net.Mesh().N()
	counts := col.PowerCounts(routers, net.NumLinks(), p.Design.Blocks())
	counts.LinkLengthFactor = net.Topo().LinkLengthFactor()
	energy := model.Energy(counts)
	return Result{
		Design:            p.Design,
		Nodes:             nodes,
		Cycles:            col.Cycles,
		AvgPacketLatency:  col.AvgPacketLatency(),
		LatencyP50:        col.LatencyPercentile(0.50),
		LatencyP95:        col.LatencyPercentile(0.95),
		LatencyP99:        col.LatencyPercentile(0.99),
		AvgNetworkLatency: col.NetworkLatency.Mean(),
		AvgHops:           col.Hops.Mean(),
		Throughput:        col.Throughput(nodes),
		PacketsDelivered:  col.PacketsDelivered,
		IdleFraction:      col.IdleFraction(),
		IdleLEBET:         col.IdlePeriods.FracLE(uint64(model.BreakevenCycles)),
		OffFraction:       col.OffFraction(),
		Wakeups:           col.Wakeups,
		GateOffs:          col.GateOffs,
		Misroutes:         col.MisroutedHops,
		Escapes:           col.EscapedPackets,
		VCReqWindow:       col.AvgVCRequestsPerWindow(routers, noc.WakeupWindow),
		Energy:            energy,
		AvgPowerW:         model.AvgPowerW(counts, energy),
		Routers:           net.PerRouterReports(),
	}
}
