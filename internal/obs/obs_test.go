package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRingOverwriteKeepsNewest(t *testing.T) {
	tr := New(Config{ResidencyEvery: -1})
	const total = ringCapacity + 6
	for c := uint64(1); c <= total; c++ {
		tr.Emit(c, 0, KindGateOff, CauseNone, 0)
	}
	if tr.Total() != total {
		t.Fatalf("total = %d, want %d", tr.Total(), total)
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	ev := tr.Events()
	if len(ev) != ringCapacity {
		t.Fatalf("len(events) = %d, want %d", len(ev), ringCapacity)
	}
	for i, e := range ev {
		if want := uint64(7 + i); e.Cycle != want {
			t.Errorf("events[%d].Cycle = %d, want %d (chronological, newest kept)", i, e.Cycle, want)
		}
	}
}

func TestSamplingRecordsOneInN(t *testing.T) {
	tr := New(Config{SampleEvery: 8, ResidencyEvery: -1})
	for c := uint64(0); c < 64; c++ {
		tr.EmitSampled(c, 3, KindBypassHop, CauseNone, 0)
	}
	if got := len(tr.Events()); got != 8 {
		t.Fatalf("recorded %d sampled events, want 8 (1-in-8 of 64)", got)
	}

	all := New(Config{SampleEvery: 1, ResidencyEvery: -1})
	for c := uint64(0); c < 10; c++ {
		all.EmitSampled(c, 0, KindBypassHop, CauseNone, 0)
	}
	if got := len(all.Events()); got != 10 {
		t.Errorf("SampleEvery=1 recorded %d events, want 10", got)
	}
}

func TestResidencySampling(t *testing.T) {
	tr := New(Config{ResidencyEvery: 10})
	tr.SetNodes(2)
	var sampled []uint64
	for c := uint64(0); c < 35; c++ {
		if row := tr.ResidencyRow(c); row != nil {
			row[0] = StateOff
			row[1] = StateOn
			sampled = append(sampled, c)
		}
	}
	if want := []uint64{0, 10, 20, 30}; len(sampled) != len(want) {
		t.Fatalf("sampled at %v, want %v", sampled, want)
	}
	rows := tr.Residency()
	if rows[1].Cycle != 10 || rows[1].State[0] != StateOff || rows[1].State[1] != StateOn {
		t.Errorf("row 1 = %+v, want cycle 10 states [off on]", rows[1])
	}

	off := New(Config{ResidencyEvery: -1})
	off.SetNodes(2)
	if row := off.ResidencyRow(0); row != nil {
		t.Errorf("ResidencyEvery<0 still returned a row")
	}
}

func TestDrainEvents(t *testing.T) {
	tr := New(Config{ResidencyEvery: -1})
	tr.Emit(1, 0, KindGateOff, CauseNone, 0)
	tr.Emit(2, 0, KindWakeStart, CauseSARequest, 1)
	got := tr.DrainEvents(nil)
	if len(got) != 2 || got[0].Cycle != 1 || got[1].Cycle != 2 {
		t.Fatalf("drained %+v, want the 2 emitted events in order", got)
	}
	if len(tr.Events()) != 0 {
		t.Fatalf("ring not empty after drain")
	}
	tr.Emit(3, 0, KindWakeDone, CauseNone, 0)
	got = tr.DrainEvents(got)
	if len(got) != 3 || got[2].Cycle != 3 {
		t.Fatalf("incremental drain appended %+v", got)
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	in := []Event{
		{Cycle: 10, Router: 3, Kind: KindGateOff},
		{Cycle: 60, Router: 3, Kind: KindWakeStart, Cause: CauseLocalInject, Arg: 50},
		{Cycle: 70, Router: 5, Kind: KindBypassHop},
	}
	for _, e := range in {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("marshal %+v: %v", e, err)
		}
		var back Event
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != e {
			t.Errorf("round trip %s: got %+v, want %+v", b, back, e)
		}
	}
	var bad Event
	if err := json.Unmarshal([]byte(`{"kind":"nope"}`), &bad); err == nil {
		t.Errorf("unknown kind accepted")
	}
}

func TestWriteNDJSON(t *testing.T) {
	tr := New(Config{ResidencyEvery: 10})
	tr.SetNodes(2)
	tr.Emit(5, 1, KindGateOff, CauseNone, 5)
	if row := tr.ResidencyRow(10); row != nil {
		row[1] = StateOff
	}
	tr.Emit(25, 1, KindWakeStart, CauseSARequest, 20)

	// The summaries are the caller's per-router records.
	type report struct{ ID, Wakeups int }
	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf, report{0, 0}, report{1, 1}); err != nil {
		t.Fatalf("WriteNDJSON: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// 2 events + 1 residency + 2 summaries + end.
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want 6:\n%s", len(lines), buf.String())
	}
	var types []string
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %q not valid JSON: %v", ln, err)
		}
		types = append(types, m["type"].(string))
	}
	want := []string{"event", "event", "residency", "summary", "summary", "end"}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("line types = %v, want %v", types, want)
		}
	}
	if !strings.Contains(lines[2], `"state":[0,1]`) {
		t.Errorf("residency line %q missing integer state array", lines[2])
	}
	if want := `{"type":"summary","ID":1,"Wakeups":1}`; lines[4] != want {
		t.Errorf("summary line %q, want %q", lines[4], want)
	}
	if want := `{"type":"end","events_total":2,"events_dropped":0}`; lines[5] != want {
		t.Errorf("end line %q, want %q", lines[5], want)
	}
}

// TestChromeTraceGolden pins the Chrome trace-event output byte-for-byte
// for a small hand-crafted run: router 0 gates off at 100, wakes (SA
// request) over cycles 400-410, and is still off again from 800 at the
// end; router 1 hard-fails at 500; a detour and a sampled bypass hop land
// on router 2. Load the file in ui.perfetto.dev to inspect changes before
// re-pinning.
func TestChromeTraceGolden(t *testing.T) {
	tr := New(Config{ResidencyEvery: 500})
	tr.SetNodes(3)
	if row := tr.ResidencyRow(0); row != nil {
		row[0], row[1], row[2] = StateOn, StateOn, StateOn
	}
	tr.Emit(100, 0, KindGateOff, CauseNone, 100)
	tr.Emit(400, 0, KindWakeStart, CauseSARequest, 300)
	tr.Emit(410, 0, KindWakeDone, CauseNone, 10)
	tr.Emit(450, 2, KindDetour, CauseNone, 0)
	tr.Emit(470, 2, KindEscape, CauseNone, 0)
	tr.EmitSampled(480, 2, KindBypassHop, CauseNone, 0)
	tr.Emit(500, 1, KindHardFail, CauseNone, 0)
	if row := tr.ResidencyRow(500); row != nil {
		row[0], row[1], row[2] = StateOn, StateFailed, StateOn
	}
	tr.Emit(800, 0, KindGateOff, CauseNone, 390)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, 1000); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	const want = `{"displayTimeUnit":"ms","traceEvents":[
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"nord routers"}},
{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"router 0"}},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"router 1"}},
{"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"router 2"}},
{"ph":"X","pid":1,"tid":0,"ts":100,"dur":300,"name":"off"},
{"ph":"i","pid":1,"tid":0,"ts":400,"s":"t","name":"wake:sa_request"},
{"ph":"X","pid":1,"tid":0,"ts":400,"dur":10,"name":"waking"},
{"ph":"i","pid":1,"tid":2,"ts":450,"s":"t","name":"detour"},
{"ph":"i","pid":1,"tid":2,"ts":470,"s":"t","name":"escape"},
{"ph":"i","pid":1,"tid":2,"ts":480,"s":"t","name":"bypass_hop"},
{"ph":"i","pid":1,"tid":1,"ts":500,"s":"t","name":"hard_fail"},
{"ph":"X","pid":1,"tid":0,"ts":800,"dur":200,"name":"off"},
{"ph":"X","pid":1,"tid":1,"ts":500,"dur":500,"name":"failed"},
{"ph":"C","pid":1,"ts":0,"name":"routers_off","args":{"off":0}},
{"ph":"C","pid":1,"ts":0,"name":"routers_waking","args":{"waking":0}},
{"ph":"C","pid":1,"ts":500,"name":"routers_off","args":{"off":1}},
{"ph":"C","pid":1,"ts":500,"name":"routers_waking","args":{"waking":0}}
]}
`
	if got := buf.String(); got != want {
		t.Errorf("chrome trace drifted from golden output.\ngot:\n%s\nwant:\n%s", got, want)
	}
	// The document must stay parseable JSON.
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 17 {
		t.Errorf("traceEvents count = %d, want 17", len(doc.TraceEvents))
	}
}

// TestChromeTraceReconstructsLostGateOff: when the ring overwrote the
// GateOff event, the off-slice is reconstructed from WakeStart's residency
// argument.
func TestChromeTraceReconstructsLostGateOff(t *testing.T) {
	tr := New(Config{ResidencyEvery: -1})
	tr.Emit(100, 0, KindGateOff, CauseNone, 100) // will be overwritten
	// Fill the rest of the ring with events the Chrome writer renders as
	// nothing: a zero-length WakeDone on another router.
	for i := 0; i < ringCapacity-1; i++ {
		tr.Emit(200, 1, KindWakeDone, CauseNone, 0)
	}
	tr.Emit(400, 0, KindWakeStart, CauseSARequest, 300)
	tr.Emit(410, 0, KindWakeDone, CauseNone, 10)
	if tr.Events()[0].Kind == KindGateOff {
		t.Fatal("the GateOff is still in the ring; the test is vacuous")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, 1000); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if !strings.Contains(buf.String(), `"ts":100,"dur":300,"name":"off"`) {
		t.Errorf("off interval not reconstructed from WakeStart arg:\n%s", buf.String())
	}
}
