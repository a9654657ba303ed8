package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"nord/internal/noc"
	"nord/internal/power"
	"nord/internal/sim"
	"nord/internal/topology"
	"nord/internal/traffic"
)

// cell is one synthetic simulation of a round: one op class.
type cell struct {
	cfg  sim.SynthConfig
	grid string // one of gridNames
	name string // one of cellNames; "" where the cell has no metric of its own
}

// label is what the cell's spans carry as Arg.
func (c cell) label() string {
	if c.name != "" {
		return c.name
	}
	return c.grid
}

// synthWorkload runs a fixed list of synthetic sims per round through
// sim.RunSyntheticOpts: kernel_nord_low, kernel_busy and sweep_short.
type synthWorkload struct {
	cells     []cell
	countSims bool // ops are whole sims (sweep_short), not simulated cycles
	shard     bool // the traced run also records the sharded-kernel evidence

	last []sim.Result // the latest round's results, which the twins must reproduce
	twin twinTotals
}

// twinTotals accumulates what the decomposed twins counted outside spans.
type twinTotals struct {
	cycles, flits, injected uint64
	mallocs, bytes          uint64
}

func gridName(topo string, w int) string { return fmt.Sprintf("%s%d", topo, w) }

func synthCell(cfg *config, d noc.Design, topo string, w int, rate float64, warmup, measure, idx int) cell {
	return cell{
		grid: gridName(topo, w),
		cfg: sim.SynthConfig{
			Design: d, Width: w, Height: w, Topology: topo, Pattern: "uniform", Rate: rate,
			Warmup: cfg.scale(warmup, 20), Measure: cfg.scale(measure, 100),
			Seed: cfg.seed*1_000_003 + int64(idx),
		},
	}
}

func designSlug(d noc.Design) string { return strings.ToLower(d.String()) }

func newKernelNordLow(cfg *config) *synthWorkload {
	c := synthCell(cfg, noc.NoRD, "mesh", 8, 0.02, 2000, 20_000, 0)
	c.name = "nord_r02"
	return &synthWorkload{cells: []cell{c}}
}

func newKernelBusy(cfg *config) *synthWorkload {
	w := &synthWorkload{shard: true}
	for _, d := range noc.Designs() {
		for _, r := range []float64{0.10, 0.25} {
			c := synthCell(cfg, d, "mesh", 8, r, 1000, 3000, len(w.cells))
			c.name = fmt.Sprintf("%s_r%02.0f", designSlug(d), r*100)
			w.cells = append(w.cells, c)
		}
	}
	return w
}

func newSweepShort(cfg *config) *synthWorkload {
	w := &synthWorkload{countSims: true}
	for _, g := range []struct {
		topo string
		w    int
	}{{"mesh", 4}, {"mesh", 8}, {"mesh", 10}, {"torus", 8}, {"cmesh", 4}} {
		for _, d := range noc.Designs() {
			for _, r := range []float64{0.02, 0.10} {
				if g.w == 10 {
					r /= 2 // uniform-random saturation falls as 1/width
				}
				w.cells = append(w.cells, synthCell(cfg, d, g.topo, g.w, r, 500, 1500, len(w.cells)))
			}
		}
	}
	return w
}

func (w *synthWorkload) repeatable() bool { return true }
func (w *synthWorkload) close()           {}

// setup pays the cold planner bill for every NoRD grid the cells use.
func (w *synthWorkload) setup(e *env) error {
	seen := map[string]bool{}
	for _, c := range w.cells {
		if c.cfg.Design != noc.NoRD || seen[c.grid] {
			continue
		}
		seen[c.grid] = true
		d, err := coldPlanner(c.cfg.Topology, c.cfg.Width)
		if err != nil {
			return err
		}
		e.set("topology.planner_cold_ms."+c.grid, ms(d))
	}
	return nil
}

// coldPlanner times the first sim.PerfCentricSetOn for a grid in this
// process (the memo is process-global, so only the first call is cold).
func coldPlanner(topo string, width int) (time.Duration, error) {
	kind, err := topology.KindByName(topo)
	if err != nil {
		return 0, err
	}
	t := time.Now()
	_, err = sim.PerfCentricSetOn(kind, width, width)
	return time.Since(t), err
}

func (w *synthWorkload) round(e *env) (string, error) {
	dg := newResultDigest()
	res := make([]sim.Result, len(w.cells))
	for i, c := range w.cells {
		e.attempt(1)
		e.main.begin("sim.RunSyntheticOpts", c.grid, int64(i))
		t := time.Now()
		r, err := sim.RunSyntheticOpts(context.Background(), c.cfg, sim.RunOptions{})
		d := time.Since(t)
		e.main.end()
		if err != nil {
			e.fail(1, "%s %v@%.2f: %v", c.grid, c.cfg.Design, c.cfg.Rate, err)
			continue
		}
		e.op(d)
		dg.add(r)
		res[i] = r
		if w.countSims {
			e.unit(i, 1, d)
		} else {
			e.unit(i, float64(c.cfg.Warmup+c.cfg.Measure), d)
		}
	}
	w.last = res
	return dg.sum(), nil
}

func (w *synthWorkload) verify(e *env) error { return nil }

// twinRepeats is how often each cell's twin runs. The first repetition
// reads the clock around every Tick and Step, which splits the loop by
// layer but slows it by several percent; the others time the loop whole.
// Like the rounds, every part is taken from its fastest repetition, and
// the whole loop's time is split in the proportion the first one found.
const twinRepeats = 5

// layers runs the decomposed twins of every cell, and on kernel_busy the
// sharded-kernel comparison.
func (w *synthWorkload) layers(e *env) error {
	for rep := 0; rep < twinRepeats; rep++ {
		for i, c := range w.cells {
			e.attempt(1)
			packets, err := w.runTwin(e.main, c, int64(i), rep == 0)
			if err != nil {
				return err
			}
			if packets != w.last[i].PacketsDelivered {
				e.fail(1, "twin of %s delivered %d packets, sim.RunSyntheticOpts %d", c.label(), packets, w.last[i].PacketsDelivered)
			}
		}
	}
	if w.shard {
		return w.shardEvidence(e)
	}
	return nil
}

// runTwin drives the same simulation as sim.RunSyntheticOpts through the
// public calls of each layer, with a span around each, so that the
// run's wall time can be split by layer. It returns PacketsDelivered.
// fine selects the repetition that times Tick and Step apart (and adds
// the run's counts to w.twin); otherwise the loop is one span.
func (w *synthWorkload) runTwin(k *track, c cell, op int64, fine bool) (uint64, error) {
	cfg := c.cfg.Filled()
	k.begin("sim.twin", c.label(), op)
	defer k.end()

	kind, err := topology.KindByName(cfg.Topology)
	if err != nil {
		return 0, err
	}
	p := noc.DefaultParams(cfg.Design)
	p.Width, p.Height, p.Topology = cfg.Width, cfg.Height, kind
	if cfg.Design == noc.NoRD {
		k.begin("topology.PerfCentricSetOn", c.grid, op)
		p.PerfCentric, err = sim.PerfCentricSetOn(kind, cfg.Width, cfg.Height)
		k.end()
		if err != nil {
			return 0, err
		}
	}

	k.begin("noc.New", c.grid, op)
	net, err := noc.New(p)
	k.end()
	if err != nil {
		return 0, err
	}
	defer net.Close()
	pattern, err := traffic.PatternByName(cfg.Pattern)
	if err != nil {
		return 0, err
	}
	inj := traffic.NewSynthetic(net, pattern, cfg.Rate, cfg.Seed)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tick := func(cycles int) error {
		if !fine {
			for i := 0; i < cycles; i++ {
				inj.Tick(net.Cycle())
				if err := net.Step(); err != nil {
					return err
				}
			}
			return nil
		}
		const batch = 1000
		for done := 0; done < cycles; done += batch {
			n := min(batch, cycles-done)
			start := k.now()
			var inTick, inStep time.Duration
			t0 := time.Now()
			for i := 0; i < n; i++ {
				inj.Tick(net.Cycle())
				t1 := time.Now()
				if err := net.Step(); err != nil {
					return err
				}
				t2 := time.Now()
				inTick += t1.Sub(t0)
				inStep += t2.Sub(t1)
				t0 = t2
			}
			k.leaf("traffic.Tick", c.label(), op, start, inTick)
			k.leaf("noc.Step", c.label(), op, start+inTick, inStep)
		}
		return nil
	}
	k.begin("sim.loop", c.label(), op)
	err = tick(cfg.Warmup)
	if err == nil {
		net.BeginMeasurement()
		err = tick(cfg.Measure)
	}
	net.FinishMeasurement()
	k.end()
	if err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&after)

	k.begin("power.New", "", op)
	_, err = power.New(cfg.Tech)
	k.end()
	if err != nil {
		return 0, err
	}

	col := net.Collector()
	if fine {
		w.twin.cycles += uint64(cfg.Warmup + cfg.Measure)
		w.twin.flits += col.FlitsDelivered
		w.twin.injected += inj.Offered()
		w.twin.mallocs += after.Mallocs - before.Mallocs
		w.twin.bytes += after.TotalAlloc - before.TotalAlloc
	}
	return col.PacketsDelivered, nil
}

// shardEvidence times the sharded kernel at P=2 against serial on 16x16,
// the recorded evidence for ROADMAP item 1's verdict on shard.go.
func (w *synthWorkload) shardEvidence(e *env) error {
	if runtime.NumCPU() < 2 {
		e.note("noc.shard2_speedup_vs_serial.*: skipped, host has %d CPU", runtime.NumCPU())
		return nil
	}
	for _, d := range []noc.Design{noc.NoPG, noc.NoRD} {
		arg := designSlug(d) + "16"
		cfg := sim.SynthConfig{
			Design: d, Width: 16, Height: 16, Rate: 0.10, NoPerfCentric: true,
			Warmup: sim.ZeroWarmup, Measure: e.cfg.scale(5000, 100), Seed: e.cfg.seed,
		}
		var delivered [2]uint64
		for i, p := range []int{1, 2} {
			e.attempt(1)
			e.main.begin(fmt.Sprintf("noc.shard.p%d", p), arg, 0)
			r, err := sim.RunSyntheticOpts(context.Background(), cfg, sim.RunOptions{Parallelism: p})
			e.main.end()
			if err != nil {
				e.fail(1, "sharded %s P=%d: %v", arg, p, err)
				continue
			}
			delivered[i] = r.PacketsDelivered
		}
		if delivered[0] != delivered[1] {
			e.attempt(1)
			e.fail(1, "sharded %s delivered %d packets at P=2, %d at P=1", arg, delivered[1], delivered[0])
		}
	}
	return nil
}

// twinTimes is a cell's twin split by layer, each part from its fastest
// repetition.
type twinTimes struct {
	planner, build, power time.Duration
	loop                  time.Duration // Tick + Step, from a repetition that timed the loop whole
	stepShare             float64       // Step's share of the loop, from the one that timed them apart
}

func (t twinTimes) parts() time.Duration { return t.planner + t.build + t.power + t.loop }
func (t twinTimes) step() time.Duration  { return time.Duration(float64(t.loop) * t.stepShare) }
func (t twinTimes) tick() time.Duration  { return t.loop - t.step() }

// bestTwins folds every twin repetition into one twinTimes per op.
func bestTwins(ss *spanSet) map[int64]*twinTimes {
	least := func(dst *time.Duration, d time.Duration) {
		if *dst == 0 || d < *dst {
			*dst = d
		}
	}
	out := map[int64]*twinTimes{}
	tick, step := map[int64]time.Duration{}, map[int64]time.Duration{}
	for i, s := range ss.spans {
		if p := s.Parent; p < 0 || (ss.spans[p].Name != "sim.twin" && ss.spans[p].Name != "sim.loop") {
			continue
		}
		t := out[s.Op]
		if t == nil {
			t = &twinTimes{}
			out[s.Op] = t
		}
		switch s.Name {
		case "topology.PerfCentricSetOn":
			least(&t.planner, s.dur())
		case "noc.New":
			least(&t.build, s.dur())
		case "power.New":
			least(&t.power, s.dur())
		case "sim.loop":
			if ss.self[i] == s.dur() { // no Tick/Step children: timed whole
				least(&t.loop, s.dur())
			}
		case "traffic.Tick":
			tick[s.Op] += s.dur()
		case "noc.Step":
			step[s.Op] += s.dur()
		}
	}
	for op, t := range out {
		if both := tick[op] + step[op]; both > 0 {
			t.stepShare = float64(step[op]) / float64(both)
		}
	}
	return out
}

func (w *synthWorkload) derive(e *env, ss *spanSet) {
	// Each cell's real run at its fastest traced round, beside its fastest
	// twin: what the twin's parts do not explain is sim's own time.
	run := map[int64]time.Duration{}
	ss.each("sim.RunSyntheticOpts", "", func(i int) {
		s := ss.spans[i]
		if d, ok := run[s.Op]; !ok || s.dur() < d {
			run[s.Op] = s.dur()
		}
	})
	twins := bestTwins(ss)

	var selfMS []float64
	var runSum, loopSum, stepAll, tickAll time.Duration
	buildMS, runMS := map[string][]float64{}, map[string][]float64{}
	var totals simTotals
	for i, c := range w.cells {
		op := int64(i)
		t := twins[op]
		if t == nil {
			continue // the twin failed and is already counted
		}
		selfMS = append(selfMS, ms(run[op]-t.parts()))
		runSum += run[op]
		loopSum += t.loop
		stepAll += t.step()
		tickAll += t.tick()
		buildMS[c.grid] = append(buildMS[c.grid], ms(t.build))
		runMS[c.grid] = append(runMS[c.grid], ms(run[op]))
		if c.name != "" {
			e.set("noc.step_ns_per_cycle."+c.name, float64(t.step())/float64(c.cfg.Warmup+c.cfg.Measure))
		}
		totals.add(w.last[i])
	}
	e.set("sim.self_ms", median(selfMS))
	if runSum > 0 {
		e.set("sim.setup_share", float64(runSum-loopSum)/float64(runSum))
	}
	for grid := range buildMS {
		e.set("noc.new_ms."+grid, median(buildMS[grid]))
		e.set("sim.run_ms."+grid, median(runMS[grid]))
	}
	totals.emit(e)

	t := w.twin
	if t.cycles > 0 {
		e.set("traffic.tick_ns_per_cycle", float64(tickAll)/float64(t.cycles))
		e.set("noc.allocs_per_cycle", float64(t.mallocs)/float64(t.cycles))
		e.set("noc.bytes_per_cycle", float64(t.bytes)/float64(t.cycles))
	}
	if t.flits > 0 {
		e.set("noc.step_ns_per_delivered_flit", float64(stepAll)/float64(t.flits))
	}
	e.set("traffic.packets_injected", float64(t.injected))
	e.set("topology.planner_warm_us", 1000*median(ss.durationsMS("topology.PerfCentricSetOn", "")))
	e.set("power.model_new_us", 1000*median(ss.durationsMS("power.New", "")))

	for _, arg := range []string{"no_pg16", "nord16"} {
		p1, p2 := ss.durationsMS("noc.shard.p1", arg), ss.durationsMS("noc.shard.p2", arg)
		if len(p1) == 1 && len(p2) == 1 && p2[0] > 0 {
			e.set("noc.shard2_speedup_vs_serial."+arg, p1[0]/p2[0])
		}
	}
}

// simTotals folds sim.Results into the simulated per-layer counts, which
// are exact for a seed: a simulator-only speed-up must leave them alone.
type simTotals struct {
	cells                                          int
	packets, wakeups, gateOffs, misroutes, escapes uint64
	latencyByPacket, offFraction                   float64
}

func (t *simTotals) add(r sim.Result) {
	t.cells++
	t.packets += r.PacketsDelivered
	t.wakeups += r.Wakeups
	t.gateOffs += r.GateOffs
	t.misroutes += r.Misroutes
	t.escapes += r.Escapes
	t.latencyByPacket += r.AvgPacketLatency * float64(r.PacketsDelivered)
	t.offFraction += r.OffFraction
}

func (t *simTotals) emit(e *env) {
	e.set("noc.packets_delivered", float64(t.packets))
	e.set("noc.wakeups", float64(t.wakeups))
	e.set("noc.gate_offs", float64(t.gateOffs))
	e.set("noc.misroutes", float64(t.misroutes))
	e.set("noc.escapes", float64(t.escapes))
	if t.packets > 0 {
		e.set("noc.avg_packet_latency_cycles", t.latencyByPacket/float64(t.packets))
	}
	if t.cells > 0 {
		e.set("noc.off_fraction", t.offFraction/float64(t.cells))
	}
}
