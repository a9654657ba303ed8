// Package obs is the cycle-level observability layer: a sampling
// ring-buffer event sink that records power-gating FSM transitions,
// wakeup causes, bypass-ring detours and escape-VC entries, plus a
// per-router PG-state residency time-series sampled at a coarse period.
//
// The tracer is designed around the simulator's zero-allocation steady
// state: when no tracer is attached the entire cost on the tick path is
// one nil pointer check, and with a tracer attached the control events
// (FSM transitions) are rare enough that the ring buffer writes are the
// only cost. High-frequency events (bypass hops) are sampled 1-in-N so
// congested NoRD runs cannot flood the ring.
//
// The tracer is single-goroutine: the simulation goroutine emits, and
// consumers either read after the run or drain from a progress callback
// (which the sim layer invokes on the simulation goroutine).
package obs

// Kind classifies a trace event.
type Kind uint8

const (
	// KindGateOff is the on->off transition (PG asserted). Arg carries
	// the cycles the router had spent powered on.
	KindGateOff Kind = iota
	// KindWakeStart is the off->waking transition (WU granted). Cause
	// says what asserted the wakeup; Arg carries the cycles spent off.
	KindWakeStart
	// KindWakeDone is the waking->on transition (pipeline restored).
	// Arg carries the wakeup latency in cycles.
	KindWakeDone
	// KindHardFail marks a router permanently lost to fault injection.
	KindHardFail
	// KindDetour is one misrouted hop: a flit taking the bypass ring (or
	// an adaptive non-minimal turn) instead of a minimal path.
	KindDetour
	// KindEscape is a packet entering the escape (dateline) VC class.
	KindEscape
	// KindBypassHop is a flit forwarded through a gated-off router's NI
	// bypass. High-frequency: recorded 1-in-SampleEvery.
	KindBypassHop

	numKinds
)

var kindNames = [numKinds]string{
	"gate_off", "wake_start", "wake_done", "hard_fail",
	"detour", "escape", "bypass_hop",
}

// String returns the stable snake_case name used in exports.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Cause attributes a KindWakeStart event to the signal that woke the
// router.
type Cause uint8

const (
	// CauseNone is used by every kind other than KindWakeStart.
	CauseNone Cause = iota
	// CauseSARequest: a neighbor stalled in switch allocation asserted
	// the WU level (conventional power gating).
	CauseSARequest
	// CauseLocalInject: the local node needs its router for injection
	// (node-router dependence of the conventional designs).
	CauseLocalInject
	// CauseVCThreshold: NoRD's windowed VC-request metric reached the
	// router's asymmetric wakeup threshold.
	CauseVCThreshold
	// CauseWatchdog: the power-gating watchdog forced a wakeup through a
	// faulty controller (stuck-off or dropped-handshake faults).
	CauseWatchdog

	numCauses
)

var causeNames = [numCauses]string{
	"", "sa_request", "local_inject", "vc_threshold", "watchdog",
}

// String returns the stable snake_case name used in exports ("" for
// CauseNone).
func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return "unknown"
}

// Event is one recorded occurrence. Arg is kind-specific: the residency
// of the state being left for FSM transitions, unused otherwise.
type Event struct {
	Cycle  uint64
	Arg    uint64
	Router int32
	Kind   Kind
	Cause  Cause
}

// ringCapacity is the event ring size; once full the oldest events are
// overwritten.
const ringCapacity = 1 << 16

// Config tunes a Tracer. The zero value selects the defaults. The event
// ring always holds ringCapacity (65536) events.
type Config struct {
	// SampleEvery records every Nth high-frequency event — bypass hops —
	// while control events are always recorded (default 64; 1 records
	// everything).
	SampleEvery int
	// ResidencyEvery is the cycle period of the per-router power-state
	// residency samples (default 1024; negative disables the series).
	ResidencyEvery int
}

func (c *Config) fill() {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 64
	}
	if c.ResidencyEvery == 0 {
		c.ResidencyEvery = 1024
	}
}

// Residency state codes, one byte per router per sample row.
const (
	StateOn     uint8 = 0
	StateOff    uint8 = 1
	StateWaking uint8 = 2
	StateFailed uint8 = 3
)

// ResidencyRow is one sample of the per-router PG-state time-series:
// State[i] is router i's state code at Cycle.
type ResidencyRow struct {
	Cycle uint64  `json:"cycle"`
	State []uint8 `json:"state"`
}

// Tracer is the event sink. It keeps time-stamped events and residency
// rows, never per-router counts: those are the network's RouterReports.
// Not safe for concurrent use: emit from the simulation goroutine only
// (see the package comment).
type Tracer struct {
	cfg   Config
	nodes int // routers: the Chrome track list and the residency row width

	buf   []Event
	start int // index of the oldest event
	count int

	total   uint64 // events recorded into the ring (before overwrites)
	dropped uint64 // events overwritten by ring wraparound
	hfSeen  uint64 // high-frequency events offered (sampled and not)
	last    uint64 // highest cycle seen by any emit or residency sample

	res     []ResidencyRow
	resNext uint64
}

// New builds a tracer; zero-value cfg fields select the defaults.
func New(cfg Config) *Tracer {
	cfg.fill()
	return &Tracer{cfg: cfg, buf: make([]Event, ringCapacity)}
}

// SetNodes sets the router count (the network calls this when the tracer
// is attached).
func (t *Tracer) SetNodes(n int) { t.nodes = n }

// Emit records a control event, always kept: once the ring is full it
// overwrites the oldest.
func (t *Tracer) Emit(cycle uint64, router int32, kind Kind, cause Cause, arg uint64) {
	t.push(Event{Cycle: cycle, Arg: arg, Router: router, Kind: kind, Cause: cause})
}

// EmitSampled records a high-frequency event 1-in-SampleEvery.
func (t *Tracer) EmitSampled(cycle uint64, router int32, kind Kind, cause Cause, arg uint64) {
	t.hfSeen++
	if t.hfSeen%uint64(t.cfg.SampleEvery) != 1 && t.cfg.SampleEvery > 1 {
		return
	}
	t.push(Event{Cycle: cycle, Arg: arg, Router: router, Kind: kind, Cause: cause})
}

func (t *Tracer) push(e Event) {
	t.total++
	if e.Cycle > t.last {
		t.last = e.Cycle
	}
	if t.count == len(t.buf) {
		t.buf[t.start] = e
		t.start = (t.start + 1) % len(t.buf)
		t.dropped++
		return
	}
	t.buf[(t.start+t.count)%len(t.buf)] = e
	t.count++
}

// ResidencyRow returns the row to fill for this cycle's residency sample
// (the caller writes one state code per router), or nil when no sample
// is due. The row's length is the node count from SetNodes.
func (t *Tracer) ResidencyRow(cycle uint64) []uint8 {
	if t.cfg.ResidencyEvery < 0 || cycle < t.resNext || t.nodes == 0 {
		return nil
	}
	t.resNext = cycle + uint64(t.cfg.ResidencyEvery)
	if cycle > t.last {
		t.last = cycle
	}
	row := ResidencyRow{Cycle: cycle, State: make([]uint8, t.nodes)}
	t.res = append(t.res, row)
	return row.State
}

// Events returns the buffered events in chronological order (a copy).
func (t *Tracer) Events() []Event {
	out := make([]Event, t.count)
	for i := 0; i < t.count; i++ {
		out[i] = t.buf[(t.start+i)%len(t.buf)]
	}
	return out
}

// DrainEvents appends the buffered events to dst in chronological order
// and empties the ring, for incremental streaming.
func (t *Tracer) DrainEvents(dst []Event) []Event {
	for i := 0; i < t.count; i++ {
		dst = append(dst, t.buf[(t.start+i)%len(t.buf)])
	}
	t.start, t.count = 0, 0
	return dst
}

// Residency returns the sampled per-router state time-series.
func (t *Tracer) Residency() []ResidencyRow { return t.res }

// Total returns the number of events recorded (including those since
// overwritten); Dropped the number lost to ring wraparound.
func (t *Tracer) Total() uint64   { return t.total }
func (t *Tracer) Dropped() uint64 { return t.dropped }
