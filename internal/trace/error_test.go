package trace

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nord/internal/flit"
)

// TestReadErrorPaths covers the parser's rejection of malformed input.
func TestReadErrorPaths(t *testing.T) {
	cases := []struct {
		name, input, want string
	}{
		{"empty", "", "empty input"},
		{"truncated header", "# nord-trace v1 nod", "bad header"},
		{"wrong magic", "nord-trace v1 nodes=16\n", "bad header"},
		{"missing node count", "# nord-trace v1 nodes=\n", "bad node count"},
		{"garbage node count", "# nord-trace v1 nodes=banana\n", "bad node count"},
		{"node count too small", "# nord-trace v1 nodes=1\n", "node count 1 invalid"},
		{"short event line", "# nord-trace v1 nodes=16\n10 0 5 0\n", "line 2"},
		{"non-numeric event", "# nord-trace v1 nodes=16\n10 0 five 0 1\n", "line 2"},
		{"src out of range", "# nord-trace v1 nodes=16\n10 16 5 0 1\n", "outside 16 nodes"},
		{"dst out of range", "# nord-trace v1 nodes=16\n10 0 99 0 1\n", "outside 16 nodes"},
		{"negative src", "# nord-trace v1 nodes=16\n10 -1 5 0 1\n", "outside 16 nodes"},
		{"self-addressed", "# nord-trace v1 nodes=16\n10 5 5 0 1\n", "self-addressed"},
		{"zero flits", "# nord-trace v1 nodes=16\n10 0 5 0 0\n", "has 0 flits"},
		{"class out of range", "# nord-trace v1 nodes=16\n10 0 5 7 1\n", "line 2: class 7"},
		{"negative class", "# nord-trace v1 nodes=16\n10 0 5 -1 1\n", "line 2: class -1"},
		{"class wraps to 0", "# nord-trace v1 nodes=16\n10 0 5 256 1\n", "line 2: class 256"},
		{"too many flits", "# nord-trace v1 nodes=16\n10 0 5 0 50000000\n", "has 50000000 flits"},
		{"non-monotonic cycles", "# nord-trace v1 nodes=16\n20 0 5 0 1\n10 1 6 0 1\n", "out of cycle order"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("Read accepted %q", tc.input)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestReadSkipsCommentsAndBlanks checks tolerated noise is not an error.
func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# nord-trace v1 nodes=16\n\n# a comment\n10 0 5 0 1\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 1 || tr.Nodes != 16 {
		t.Fatalf("got %d events, %d nodes", len(tr.Events), tr.Nodes)
	}
}

// TestLoadCorruptGzip verifies a .gz file with invalid contents fails
// cleanly instead of feeding garbage to the parser.
func TestLoadCorruptGzip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corrupt.trace.gz")
	if err := os.WriteFile(path, []byte("this is not gzip data"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load accepted a corrupt gzip file")
	}
}

// TestLoadTruncatedGzip verifies a gzip stream cut off mid-body errors.
func TestLoadTruncatedGzip(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.trace.gz")
	tr := &Trace{Nodes: 16}
	for i := 0; i < 2000; i++ {
		tr.Events = append(tr.Events, Event{Cycle: uint64(i), Src: i % 16, Dst: (i + 1) % 16, Flits: 1})
	}
	if err := tr.Save(full); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.trace.gz")
	if err := os.WriteFile(cut, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(cut); err == nil {
		t.Fatal("Load accepted a truncated gzip stream")
	}
}

// TestLoadRoundTrip sanity-checks Save/Load including gzip framing so the
// corrupt-input tests above are meaningful.
func TestLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ok.trace.gz")
	want := &Trace{Nodes: 16, Events: []Event{
		{Cycle: 5, Src: 0, Dst: 3, Flits: 1},
		{Cycle: 9, Src: 2, Dst: 7, Class: 1, Flits: 5},
	}}
	if err := want.Save(path); err != nil {
		t.Fatal(err)
	}
	// The file really is gzip: a raw reader must see the magic bytes.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := gzip.NewReader(f); err != nil {
		t.Fatalf("saved .gz is not gzip: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Nodes != want.Nodes || len(got.Events) != len(want.Events) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range want.Events {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("event %d: got %+v want %+v", i, got.Events[i], want.Events[i])
		}
	}
}

// TestValidateBoundsEvents covers the bounds a trace built in memory
// meets at Validate, where Read's line checks do not run.
func TestValidateBoundsEvents(t *testing.T) {
	for _, e := range []Event{
		{Cycle: 1, Src: 0, Dst: 1, Class: flit.NumClasses, Flits: 1},
		{Cycle: 1, Src: 0, Dst: 1, Class: 255, Flits: 1},
		{Cycle: 1, Src: 0, Dst: 1, Flits: MaxFlits + 1},
	} {
		tr := &Trace{Nodes: 16, Events: []Event{e}}
		if err := tr.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", e)
		}
	}
	ok := &Trace{Nodes: 16, Events: []Event{{Cycle: 1, Src: 0, Dst: 1, Class: flit.NumClasses - 1, Flits: MaxFlits}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate rejected the largest class and packet: %v", err)
	}
}

// FuzzTraceRead feeds Read arbitrary text: no input may panic, and an
// accepted trace must come back unchanged through Write and Read.
func FuzzTraceRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("written trace rejected: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(got, tr) {
			t.Fatalf("round trip changed the trace:\n got  %+v\n want %+v", got, tr)
		}
	})
}
