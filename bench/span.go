package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (never inside the program under test).
type span struct {
	Name   string // "<layer>.<call>"
	Arg    string // grid, cell or request label
	Op     int64  // shared by every span of one sim, job or search
	Track  int    // one track per goroutine that records
	Parent int    // index of the enclosing span; -1 for a track's first span
	Start  time.Duration
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer is the span's name up to the first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. Each goroutine records
// on its own track, so recording takes no lock; tracks are created and
// merged on the main goroutine only.
type tracer struct {
	t0     time.Time
	tracks []*track
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// track is one goroutine's span stack. A nil track records nothing, which
// is how the untraced run shares the workload code.
type track struct {
	tr    *tracer
	id    int
	spans []span // Parent is an index into this slice until merge
	stack []int
}

// newTrack must be called from the goroutine that owns the tracer.
func (t *tracer) newTrack() *track {
	if t == nil {
		return nil
	}
	k := &track{tr: t, id: len(t.tracks)}
	t.tracks = append(t.tracks, k)
	return k
}

func (k *track) top() int {
	if len(k.stack) == 0 {
		return -1
	}
	return k.stack[len(k.stack)-1]
}

func (k *track) begin(name, arg string, op int64) {
	if k == nil {
		return
	}
	k.spans = append(k.spans, span{Name: name, Arg: arg, Op: op, Track: k.id, Parent: k.top(), Start: time.Since(k.tr.t0)})
	k.stack = append(k.stack, len(k.spans)-1)
}

func (k *track) end() {
	if k == nil {
		return
	}
	i := k.top()
	k.stack = k.stack[:len(k.stack)-1]
	k.spans[i].End = time.Since(k.tr.t0)
}

// leaf records an already-finished child of the open span: batched work
// (1000 Network.Step calls) laid out as one interval.
func (k *track) leaf(name, arg string, op int64, start, d time.Duration) {
	if k == nil {
		return
	}
	k.spans = append(k.spans, span{Name: name, Arg: arg, Op: op, Track: k.id, Parent: k.top(), Start: start, End: start + d})
}

func (k *track) now() time.Duration {
	if k == nil {
		return 0
	}
	return time.Since(k.tr.t0)
}

// merged returns every track's spans in one slice with Parent rewritten
// to index it.
func (t *tracer) merged() []span {
	var out []span
	for _, k := range t.tracks {
		base := len(out)
		for _, s := range k.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, for each span, its duration minus the part of that
// interval its direct children cover. Children may overlap each other
// and may stick out of the parent; both are clipped, so a span's self
// time is never negative and a track's self times sum to the time its
// root spans cover.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		edge := s.Start // everything before edge is already counted
		for _, c := range kids {
			lo, hi := spans[c].Start, spans[c].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// spanSet answers the per-layer questions over one traced run.
type spanSet struct {
	spans []span
	self  []time.Duration
}

func newSpanSet(t *tracer) *spanSet {
	sp := t.merged()
	return &spanSet{spans: sp, self: selfTimes(sp)}
}

// each calls f for every span with the given name (and arg, unless "").
func (ss *spanSet) each(name, arg string, f func(i int)) {
	for i, s := range ss.spans {
		if s.Name == name && (arg == "" || s.Arg == arg) {
			f(i)
		}
	}
}

// selfSum is the total self time of the matching spans.
func (ss *spanSet) selfSum(name, arg string) time.Duration {
	var d time.Duration
	ss.each(name, arg, func(i int) { d += ss.self[i] })
	return d
}

// durationsMS lists the matching spans' durations in milliseconds.
func (ss *spanSet) durationsMS(name, arg string) []float64 {
	var out []float64
	ss.each(name, arg, func(i int) { out = append(out, ms(ss.spans[i].dur())) })
	return out
}

// selfCoverage compares, per track, the summed self time with the time
// the track's root spans cover; the worst ratio is returned. Properly
// nested spans give exactly 1; the traced run fails outside 0.95..1.05.
func (ss *spanSet) selfCoverage() float64 {
	type acc struct{ self, root time.Duration }
	per := map[int]*acc{}
	for i, s := range ss.spans {
		a := per[s.Track]
		if a == nil {
			a = &acc{}
			per[s.Track] = a
		}
		a.self += ss.self[i]
		if s.Parent < 0 {
			a.root += s.dur()
		}
	}
	worst := 1.0
	for _, a := range per {
		if a.root == 0 {
			continue
		}
		r := float64(a.self) / float64(a.root)
		if math.Abs(r-1) > math.Abs(worst-1) {
			worst = r
		}
	}
	return worst
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as a Chrome trace-event file.
func writeChrome(path string, spans []span) error {
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: s.Name, Cat: s.layer(), Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			PID: 1, TID: s.Track,
			Args: map[string]any{"op": s.Op, "parent": s.Parent, "arg": s.Arg, "id": i},
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
