package obs

import (
	"bufio"
	"fmt"
	"io"
)

// This file renders a tracer's contents in the Chrome trace-event JSON
// format, loadable in Perfetto (ui.perfetto.dev) and chrome://tracing.
// One timestamp tick is one simulated cycle (the viewer displays it as
// a microsecond). Each router gets its own track (pid 1, tid = router
// id): gated-off and waking periods are duration ("X") slices, wakeups
// with their cause and detour/escape/bypass events are instants ("i"),
// and the residency samples become "routers_off"/"routers_waking"
// counter tracks. Powered-on time is the empty background, keeping the
// timeline legible — the paper's per-router disconnected-time pictures
// fall straight out of the off-slices.
//
// The writer emits objects with fixed field order and no floating-point
// values, so the output is byte-deterministic and golden-testable.

// WriteChromeTrace writes the Chrome trace-event JSON document. endCycle
// closes the still-open gated-off/failed intervals (pass the final
// simulation cycle; it is clamped up to the last recorded cycle so stale
// values cannot truncate the timeline).
func (t *Tracer) WriteChromeTrace(w io.Writer, endCycle uint64) error {
	if t.last > endCycle {
		endCycle = t.last
	}
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}
	emit(`{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"nord routers"}}`)
	for id := range t.nodes {
		emit(`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":"router %d"}}`, id, id)
	}

	// offSince tracks routers known to be gated off (or hard-failed) so
	// the still-open intervals can be closed at endCycle. A WakeStart
	// whose GateOff was overwritten by the ring (or never emitted,
	// ForcedOff starts) reconstructs the interval from its Arg residency.
	offSince := make(map[int32]uint64)
	failedAt := make(map[int32]uint64)
	for _, e := range t.Events() {
		switch e.Kind {
		case KindGateOff:
			offSince[e.Router] = e.Cycle
		case KindWakeStart:
			start := e.Cycle - e.Arg
			if s, ok := offSince[e.Router]; ok {
				start = s
				delete(offSince, e.Router)
			}
			if e.Cycle > start {
				emit(`{"ph":"X","pid":1,"tid":%d,"ts":%d,"dur":%d,"name":"off"}`,
					e.Router, start, e.Cycle-start)
			}
			emit(`{"ph":"i","pid":1,"tid":%d,"ts":%d,"s":"t","name":"wake:%s"}`,
				e.Router, e.Cycle, e.Cause)
		case KindWakeDone:
			if e.Arg > 0 {
				emit(`{"ph":"X","pid":1,"tid":%d,"ts":%d,"dur":%d,"name":"waking"}`,
					e.Router, e.Cycle-e.Arg, e.Arg)
			}
		case KindHardFail:
			failedAt[e.Router] = e.Cycle
			emit(`{"ph":"i","pid":1,"tid":%d,"ts":%d,"s":"t","name":"hard_fail"}`,
				e.Router, e.Cycle)
		case KindDetour, KindEscape, KindBypassHop:
			emit(`{"ph":"i","pid":1,"tid":%d,"ts":%d,"s":"t","name":"%s"}`,
				e.Router, e.Cycle, e.Kind)
		}
	}
	// Close intervals still open at the end of the run, in router order
	// for determinism.
	for id := range t.nodes {
		r := int32(id)
		if at, ok := failedAt[r]; ok {
			if s, ok := offSince[r]; ok && s < at {
				at = s
			}
			if endCycle > at {
				emit(`{"ph":"X","pid":1,"tid":%d,"ts":%d,"dur":%d,"name":"failed"}`, r, at, endCycle-at)
			}
			delete(offSince, r)
			continue
		}
		if s, ok := offSince[r]; ok && endCycle > s {
			emit(`{"ph":"X","pid":1,"tid":%d,"ts":%d,"dur":%d,"name":"off"}`, r, s, endCycle-s)
		}
	}
	for _, row := range t.res {
		off, waking := 0, 0
		for _, st := range row.State {
			switch st {
			case StateOff, StateFailed:
				off++
			case StateWaking:
				waking++
			}
		}
		emit(`{"ph":"C","pid":1,"ts":%d,"name":"routers_off","args":{"off":%d}}`, row.Cycle, off)
		emit(`{"ph":"C","pid":1,"ts":%d,"name":"routers_waking","args":{"waking":%d}}`, row.Cycle, waking)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
