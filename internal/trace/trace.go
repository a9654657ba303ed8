// Package trace records and replays network traffic. A trace captures
// the packets a workload injects (cycle, source, destination, protocol
// class, length), so an expensive full-system run can be performed once
// and replayed cheaply across power-gating designs and parameter sweeps
// — the standard trace-driven methodology of NoC studies.
//
// The on-disk format is line-oriented text, one event per line:
//
//	# nord-trace v1 nodes=16
//	<cycle> <src> <dst> <class> <flits>
//
// Files ending in .gz are transparently (de)compressed.
package trace

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"nord/internal/flit"
)

// Event is one recorded packet injection.
type Event struct {
	Cycle uint64
	Src   int
	Dst   int
	Class flit.Class
	Flits int
}

// MaxFlits bounds an event's packet length. Every generator in the repo
// emits 1- or 5-flit packets; the bound keeps a hostile trace from
// asking the replayer for an unbounded packet.
const MaxFlits = 64

// header identifies the format.
const headerPrefix = "# nord-trace v1 nodes="

// Trace is an in-memory trace.
type Trace struct {
	Nodes  int
	Events []Event
}

// Validate checks internal consistency.
func (t *Trace) Validate() error {
	if t.Nodes < 2 {
		return fmt.Errorf("trace: node count %d invalid", t.Nodes)
	}
	var last uint64
	for i, e := range t.Events {
		if e.Src < 0 || e.Src >= t.Nodes || e.Dst < 0 || e.Dst >= t.Nodes {
			return fmt.Errorf("trace: event %d endpoints (%d->%d) outside %d nodes", i, e.Src, e.Dst, t.Nodes)
		}
		if e.Src == e.Dst {
			return fmt.Errorf("trace: event %d is self-addressed", i)
		}
		if e.Class >= flit.NumClasses {
			return fmt.Errorf("trace: event %d has class %d, want 0 to %d", i, e.Class, flit.NumClasses-1)
		}
		if e.Flits < 1 || e.Flits > MaxFlits {
			return fmt.Errorf("trace: event %d has %d flits, want 1 to %d", i, e.Flits, MaxFlits)
		}
		if e.Cycle < last {
			return fmt.Errorf("trace: event %d out of cycle order", i)
		}
		last = e.Cycle
	}
	return nil
}

// Sort orders events by cycle (stable), normalising traces assembled out
// of order.
func (t *Trace) Sort() {
	sort.SliceStable(t.Events, func(i, j int) bool { return t.Events[i].Cycle < t.Events[j].Cycle })
}

// Write serialises the trace.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s%d\n", headerPrefix, t.Nodes); err != nil {
		return err
	}
	for _, e := range t.Events {
		if _, err := fmt.Fprintf(bw, "%d %d %d %d %d\n", e.Cycle, e.Src, e.Dst, e.Class, e.Flits); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a trace.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewScanner(r)
	br.Buffer(make([]byte, 1<<20), 1<<20)
	if !br.Scan() {
		return nil, fmt.Errorf("trace: empty input")
	}
	head := br.Text()
	if !strings.HasPrefix(head, headerPrefix) {
		return nil, fmt.Errorf("trace: bad header %q", head)
	}
	t := &Trace{}
	if _, err := fmt.Sscanf(head[len(headerPrefix):], "%d", &t.Nodes); err != nil {
		return nil, fmt.Errorf("trace: bad node count: %w", err)
	}
	line := 1
	for br.Scan() {
		line++
		text := strings.TrimSpace(br.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var e Event
		var class int
		if _, err := fmt.Sscanf(text, "%d %d %d %d %d", &e.Cycle, &e.Src, &e.Dst, &class, &e.Flits); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if class < 0 || class >= flit.NumClasses {
			// Checked before the conversion, which would wrap -1 to 255
			// and 256 to 0.
			return nil, fmt.Errorf("trace: line %d: class %d, want 0 to %d", line, class, flit.NumClasses-1)
		}
		e.Class = flit.Class(class)
		t.Events = append(t.Events, e)
	}
	if err := br.Err(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Save writes the trace to a file, gzip-compressed for .gz names.
func (t *Trace) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var w io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		w = gz
	}
	if err := t.Write(w); err != nil {
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return err
		}
	}
	return f.Close()
}

// Load reads a trace from a file, gunzipping .gz names.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(path, f)
}

// Decode parses a trace read from r, gunzipping it when name ends in .gz.
func Decode(name string, r io.Reader) (*Trace, error) {
	if strings.HasSuffix(name, ".gz") {
		gz, err := gzip.NewReader(r)
		if err != nil {
			return nil, err
		}
		defer gz.Close()
		r = gz
	}
	return Read(r)
}

// Recorder accumulates injected packets from a live network. Attach it
// with net.SetInjectHook(rec.Hook) before running.
type Recorder struct {
	t *Trace
}

// NewRecorder returns a recorder for a network of the given size.
func NewRecorder(nodes int) *Recorder {
	return &Recorder{t: &Trace{Nodes: nodes}}
}

// Hook is the inject-hook callback.
func (r *Recorder) Hook(p *flit.Packet, cycle uint64) {
	r.t.Events = append(r.t.Events, Event{
		Cycle: cycle,
		Src:   p.Src,
		Dst:   p.Dst,
		Class: p.Class,
		Flits: p.Length,
	})
}

// Trace returns the recorded trace (sorted, ready to save).
func (r *Recorder) Trace() *Trace {
	r.t.Sort()
	return r.t
}

// Network is the injection surface a replayer needs; *noc.Network
// satisfies it.
type Network interface {
	NewPacket(src, dst int, class flit.Class, length int) *flit.Packet
	Inject(p *flit.Packet) bool
	Cycle() uint64
}

// Replayer injects a trace's events into a network at their recorded
// cycles (open loop); events that hit NI backpressure are retried on
// subsequent cycles.
type Replayer struct {
	net     Network
	events  []Event
	next    int
	pending []Event
	// Injected counts events handed to the network so far.
	Injected uint64
}

// NewReplayer builds a replayer. The network must have at least as many
// nodes as the trace.
func NewReplayer(net Network, t *Trace) *Replayer {
	return &Replayer{net: net, events: t.Events}
}

// Tick injects every event due at the current cycle (call once per cycle
// before the network tick).
func (r *Replayer) Tick(cycle uint64) {
	keep := r.pending[:0]
	for _, e := range r.pending {
		if r.inject(e) {
			continue
		}
		keep = append(keep, e)
	}
	r.pending = keep
	for r.next < len(r.events) && r.events[r.next].Cycle <= cycle {
		e := r.events[r.next]
		r.next++
		if !r.inject(e) {
			r.pending = append(r.pending, e)
		}
	}
}

func (r *Replayer) inject(e Event) bool {
	p := r.net.NewPacket(e.Src, e.Dst, e.Class, e.Flits)
	if !r.net.Inject(p) {
		return false
	}
	r.Injected++
	return true
}

// Done reports whether every event has been handed to the network.
func (r *Replayer) Done() bool {
	return r.next >= len(r.events) && len(r.pending) == 0
}

// Offered returns the number of events in the trace.
func (r *Replayer) Offered() uint64 { return uint64(len(r.events)) }

// Pending returns events still awaiting injection.
func (r *Replayer) Pending() int { return len(r.events) - r.next + len(r.pending) }

// Dropped always returns 0: a replayer never abandons events.
func (r *Replayer) Dropped() uint64 { return 0 }
