package sim

import (
	"context"
	"fmt"

	"nord/internal/noc"
	"nord/internal/obs"
	"nord/internal/power"
	"nord/internal/stats"
)

// checkEvery is the number of cycles between context polls: the bound on
// how many extra cycles a canceled run keeps ticking.
const checkEvery = 1024

// progressEvery is the number of cycles between progress snapshots.
const progressEvery = 5000

// RunOptions attaches observers to the *Opts runners. The zero value is
// ready to use: the context is polled every checkEvery (1024) cycles and
// no progress is reported.
type RunOptions struct {
	// Progress, when non-nil, receives a stats.Progress snapshot every
	// progressEvery (5000) cycles and once more when the run finishes. It
	// is called from the simulation goroutine; keep it fast.
	Progress func(stats.Progress)
	// Tracer, when non-nil, is attached to the network as the cycle-level
	// event sink (power-gating FSM transitions, wakeup causes, detours;
	// see internal/obs). Like Progress it is driven on the simulation
	// goroutine: drain it from the Progress callback or after the run.
	Tracer *obs.Tracer
	// Parallelism is ignored: the tick kernel is serial. It remains only
	// because the benchmark ladder still sets it.
	Parallelism int
}

// session is the one way a simulation is driven: open builds the network
// of one design point, phase steps it — always through Step, polling the
// context and reporting progress on every cycle of every phase — and
// close folds the counters through the power model into a Result. The
// run kinds and the samplers differ only in what they inject before a
// step, when a phase stops and what they read after a step.
//
// The first failure (deadlock, protocol violation, cancellation, a
// budget running out) latches in err: later phases are no-ops and close
// returns it beside the partial Result, so a kind reads as a straight
// script of phases.
type session struct {
	ctx   context.Context
	opt   RunOptions
	net   *noc.Network
	model *power.Model

	// step advances the simulation one cycle: the bare network, or the
	// memory system driving it.
	step func() error
	// inject, when set, runs before every step with the cycle about to be
	// simulated (the traffic source); after, when set, runs after it.
	inject func(cycle uint64)
	after  func()

	total    uint64 // planned cycles for progress reports, 0 when open-ended
	lastEmit uint64
	err      error
}

// open builds the network c describes, carrying the given number of
// message classes. Errors are configuration errors: params judges c by
// SynthConfig.Validate's rules, so no runner skips them. The caller owns
// closing the network: defer s.net.Close() right after a successful open.
func open(ctx context.Context, c SynthConfig, classes int, opt RunOptions) (*session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	params, err := c.params(classes)
	if err == nil && c.Design.Blocks().Bypass && !c.NoPerfCentric && !c.ForcedOff {
		params.PerfCentric, err = PerfCentricSetOn(params.Topology, c.Width, c.Height)
	}
	if err != nil {
		return nil, err
	}
	net, err := noc.New(params)
	if err != nil {
		return nil, err
	}
	net.SetTracer(opt.Tracer)
	return &session{ctx: ctx, opt: opt, net: net, model: power.MustNew(c.Tech), step: net.Step}, nil
}

// before reports whether the network has yet to reach the given cycle —
// the stop condition of a fixed-length phase.
func (s *session) before(cycle uint64) func() bool {
	return func() bool { return s.net.Cycle() < cycle }
}

// phase steps the simulation while more() holds.
func (s *session) phase(name string, more func() bool) {
	for s.err == nil && more() {
		if s.inject != nil {
			s.inject(s.net.Cycle())
		}
		if s.err = s.step(); s.err != nil {
			return
		}
		if s.after != nil {
			s.after()
		}
		s.observe(name)
	}
}

// begin opens the measurement window, unless the warmup already failed.
func (s *session) begin() {
	if s.err == nil {
		s.net.BeginMeasurement()
	}
}

// fail latches a failure the phases cannot see for themselves (a cycle
// budget that ran out).
func (s *session) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// observe polls the context every checkEvery cycles and emits a progress
// snapshot every progressEvery cycles. A cancellation wraps the context's
// cause (context.Cause falls back to ctx.Err, so errors.Is still sees
// context.Canceled / DeadlineExceeded; callers that cancel with a cause —
// e.g. a per-job execution deadline — can distinguish it from a plain
// client cancel).
func (s *session) observe(phase string) {
	cyc := s.net.Cycle()
	if cyc%checkEvery == 0 && s.ctx.Err() != nil {
		s.err = fmt.Errorf("sim: run canceled at cycle %d: %w", cyc, context.Cause(s.ctx))
		return
	}
	if s.opt.Progress != nil && cyc-s.lastEmit >= progressEvery {
		s.emit(phase)
	}
}

func (s *session) emit(phase string) {
	col := s.net.Collector()
	s.lastEmit = s.net.Cycle()
	s.opt.Progress(stats.Progress{
		Cycle:            s.net.Cycle(),
		TotalCycles:      s.total,
		Phase:            phase,
		PacketsInjected:  col.PacketsInjected,
		PacketsDelivered: col.PacketsDelivered,
		InFlight:         s.net.InFlight(),
	})
}

// close ends the measurement and converts the collectors into a Result.
// A latched failure is returned as the error AND recorded in Result.Err
// beside whatever statistics were gathered, so sweeps can tabulate failed
// cells instead of dying.
func (s *session) close(label string) (Result, error) {
	s.net.FinishMeasurement()
	if s.opt.Progress != nil {
		s.emit("measure") // the terminal cycle, on every path
	}
	res := collect(s.net, s.model)
	res.Label = label
	res.Fault = s.net.FaultReport()
	if s.err != nil {
		res.Err = s.err.Error()
	}
	return res, s.err
}
