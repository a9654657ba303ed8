package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// eventJSON is the wire form of an Event: kinds and causes as their
// stable snake_case names.
type eventJSON struct {
	Cycle  uint64 `json:"cycle"`
	Router int32  `json:"router"`
	Kind   string `json:"kind"`
	Cause  string `json:"cause,omitempty"`
	Arg    uint64 `json:"arg,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(eventJSON{
		Cycle: e.Cycle, Router: e.Router,
		Kind: e.Kind.String(), Cause: e.Cause.String(), Arg: e.Arg,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (e *Event) UnmarshalJSON(b []byte) error {
	var w eventJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	k, err := kindByName(w.Kind)
	if err != nil {
		return err
	}
	c, err := causeByName(w.Cause)
	if err != nil {
		return err
	}
	*e = Event{Cycle: w.Cycle, Arg: w.Arg, Router: w.Router, Kind: k, Cause: c}
	return nil
}

func kindByName(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("obs: unknown event kind %q", s)
}

func causeByName(s string) (Cause, error) {
	for c, name := range causeNames {
		if name == s {
			return Cause(c), nil
		}
	}
	return 0, fmt.Errorf("obs: unknown wake cause %q", s)
}

// MarshalJSON renders the state row as an integer array (Go would
// otherwise base64 the byte slice, which is useless to shell tooling).
func (r ResidencyRow) MarshalJSON() ([]byte, error) {
	states := make([]int, len(r.State))
	for i, s := range r.State {
		states[i] = int(s)
	}
	return json.Marshal(struct {
		Cycle uint64 `json:"cycle"`
		State []int  `json:"state"`
	}{Cycle: r.Cycle, State: states})
}

// WriteLine writes v, which must encode as a non-empty JSON object, as
// one NDJSON line with the "type" discriminator spliced ahead of its own
// fields.
func WriteLine(w io.Writer, typ string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "{\"type\":%q,%s\n", typ, b[1:])
	return err
}

// WriteNDJSON dumps the tracer's contents as newline-delimited JSON: one
// line per event ("type":"event") and residency sample
// ("type":"residency"), then one "type":"summary" line per element of
// summaries — the caller's per-router records, since the tracer keeps no
// counts — closed by a "type":"end" line with the recording totals.
func (t *Tracer) WriteNDJSON(w io.Writer, summaries ...any) error {
	for _, e := range t.Events() {
		if err := WriteLine(w, "event", e); err != nil {
			return err
		}
	}
	for _, row := range t.res {
		if err := WriteLine(w, "residency", row); err != nil {
			return err
		}
	}
	for _, s := range summaries {
		if err := WriteLine(w, "summary", s); err != nil {
			return err
		}
	}
	return WriteLine(w, "end", struct {
		Total   uint64 `json:"events_total"`
		Dropped uint64 `json:"events_dropped"`
	}{t.total, t.dropped})
}
