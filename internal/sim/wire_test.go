package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nord/internal/fault"
	"nord/internal/noc"
)

// wireCells are the results whose JSON payloads are committed under
// testdata/wire: the serve-shape job of each design (4x4 mesh, 5 % load,
// 1000 + 5000 cycles, the ladder's first job seed) and a faulted cmesh
// run, whose hard-failed router puts a HardFailed column on the wire.
// testdata/wire/rows holds the same results as written before the router
// table went on the wire as columns.
func wireCells() map[string]SynthConfig {
	cells := map[string]SynthConfig{}
	for _, d := range noc.Designs() {
		cells["serve_"+d.String()] = SynthConfig{Design: d, Width: 4, Height: 4, Pattern: "uniform",
			Rate: 0.05, Warmup: 1000, Measure: 5000, Seed: 1000003}
	}
	cells["faulted_cmesh_NoRD"] = SynthConfig{Design: noc.NoRD, Topology: "cmesh", Rate: 0.05,
		Warmup: 500, Measure: 3000, Seed: 3, Faults: &fault.Config{Seed: 5, HardFails: 1, CorruptLinks: 4}}
	return cells
}

func readWire(t testing.TB, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "wire", path))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestResultWireGolden pins the job payload byte for byte: the column
// table's shape, its column order and omissions, and every number as
// encoding/json writes it. A change to RouterReport or to the codec that
// moves a byte fails here; one that means to regenerates the files.
func TestResultWireGolden(t *testing.T) {
	for name, cfg := range wireCells() {
		r, err := RunSyntheticOpts(context.Background(), cfg.Filled(), RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := readWire(t, name+".json"); string(got) != string(want) {
			t.Errorf("%s: payload differs from testdata/wire/%s.json\n got  %s\n want %s", name, name, got, want)
		}
	}
	// The faulted cell must keep covering the HardFailed column.
	if b := readWire(t, "faulted_cmesh_NoRD.json"); !strings.Contains(string(b), `"HardFailed":[`) {
		t.Error("faulted_cmesh_NoRD.json has no HardFailed column")
	}
}

// TestLegacyRowsDecode: a payload cached by a binary that wrote the router
// table as rows decodes to the same Result as its column form.
func TestLegacyRowsDecode(t *testing.T) {
	for name := range wireCells() {
		var rows, cols Result
		if err := json.Unmarshal(readWire(t, "rows/"+name+".json"), &rows); err != nil {
			t.Fatalf("%s rows: %v", name, err)
		}
		if err := json.Unmarshal(readWire(t, name+".json"), &cols); err != nil {
			t.Fatalf("%s columns: %v", name, err)
		}
		if len(rows.Routers) == 0 || !reflect.DeepEqual(rows, cols) {
			t.Errorf("%s: rows decode to\n%+v\ncolumns to\n%+v", name, rows, cols)
		}
	}
}

// TestResultJSONRoundTrip: a Result survives its payload, every design on
// every topology, with and without a fault schedule armed.
func TestResultJSONRoundTrip(t *testing.T) {
	for _, topo := range []string{"mesh", "torus", "cmesh"} {
		for _, d := range noc.Designs() {
			for _, faults := range []*fault.Config{nil, {Seed: 11, CorruptLinks: 6, DropWakeups: 2}} {
				name := fmt.Sprintf("%s/%v/faults=%v", topo, d, faults != nil)
				r, err := runSynthetic(SynthConfig{Design: d, Topology: topo, Rate: 0.06,
					Warmup: 300, Measure: 1500, Seed: 21, Faults: faults})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				b, err := json.Marshal(r)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var back Result
				if err := json.Unmarshal(b, &back); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(back, r) {
					t.Errorf("%s: round trip changed the result\n got  %+v\n want %+v", name, back, r)
				}
			}
		}
	}
	for _, tab := range []RouterTable{nil, {}, {{}}, {{ID: 3, HardFailed: true, MeanOffInterval: 1e-7}}} {
		b, err := json.Marshal(tab)
		if err != nil {
			t.Fatal(err)
		}
		var back RouterTable
		if err := json.Unmarshal(b, &back); err != nil || !reflect.DeepEqual(back, tab) {
			t.Errorf("%#v -> %s -> %#v (%v)", tab, b, back, err)
		}
	}
}

// TestAppendFloatMatchesEncodingJSON: the column writer formats a float
// as encoding/json does, at the exponent cut-offs and on random bits.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -2.5, 1e-6, 9.999999e-7, 1e-7, 1.5e-300,
		5e-324, 1e20, 1e21, 123456789e15, math.MaxFloat64, -math.SmallestNonzeroFloat64, 0.1 + 0.2}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			vals = append(vals, f)
		}
	}
	for _, f := range vals {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := appendFloat(nil, f); err != nil || string(got) != string(want) {
			t.Errorf("%v: got %s (%v), encoding/json writes %s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := json.Marshal(RouterTable{{IdleFraction: f}}); err == nil {
			t.Errorf("a router table holding %v encoded", f)
		}
	}
}

// TestRouterTableRejectsMalformed: a table that is not one router per
// position is an error, not a short or padded table; unknown columns are
// ignored as encoding/json ignores unknown fields.
func TestRouterTableRejectsMalformed(t *testing.T) {
	for _, body := range []string{
		`{"ID":[0,1,2],"X":[0,1]}`,
		`{"ID":[0,1],"Wakeups":[1,2,3]}`,
		`{"ID":[0,1],"PerfCentric":[]}`,
		`{"X":[0,1]}`,
		`{"ID":null,"X":[0,1]}`,
		`{}`,
		`{"ID":[0,"1"]}`,
		`{"ID":[0],"Wakeups":[-1]}`,
		`{"ID":[0],"IdleFraction":[1e400]}`,
		`{"ID":[0.5]}`,
		`{"ID":0}`,
		`"ID"`,
		`7`,
	} {
		var tab RouterTable
		if err := json.Unmarshal([]byte(body), &tab); err == nil {
			t.Errorf("%s decoded to %+v, want an error", body, tab)
		}
		var r Result
		if err := json.Unmarshal([]byte(`{"Nodes":2,"Routers":`+body+`}`), &r); err == nil {
			t.Errorf("a Result whose Routers are %s decoded", body)
		}
	}
	var tab RouterTable
	if err := json.Unmarshal([]byte(`{"ID":[4,5],"PerPort":[[1],[2]],"Wakeups":[0,9]}`), &tab); err != nil {
		t.Fatal(err)
	}
	if want := (RouterTable{{ID: 4}, {ID: 5, Wakeups: 9}}); !reflect.DeepEqual(tab, want) {
		t.Errorf("got %+v, want %+v", tab, want)
	}
}

// FuzzRouterTableJSON: no body decodes to a panic, and whatever decodes
// re-encodes to bytes that decode to the same table. The corpus under
// testdata/fuzz holds golden tables in both forms and malformed ones.
func FuzzRouterTableJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var tab RouterTable
		if json.Unmarshal(data, &tab) != nil {
			return
		}
		b, err := json.Marshal(tab)
		if err != nil {
			t.Fatalf("accepted %q but cannot re-encode it: %v", data, err)
		}
		var back RouterTable
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%q re-encoded to %s, which does not decode: %v", data, b, err)
		}
		if !reflect.DeepEqual(back, tab) {
			t.Fatalf("%q decoded to %+v; its encoding %s decodes to %+v", data, tab, b, back)
		}
	})
}

// BenchmarkResultJSON is the payload codec's cost per serve-shape result
// (the NoRD cell of wireCells): what a worker pays to marshal a finished
// job and a search pays to read a candidate's result.
func BenchmarkResultJSON(b *testing.B) {
	r, err := RunSyntheticOpts(context.Background(), wireCells()["serve_NoRD"].Filled(), RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	payload, err := json.Marshal(r)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var back Result
			if err := json.Unmarshal(payload, &back); err != nil {
				b.Fatal(err)
			}
		}
	})
}
