package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"

	"nord/internal/noc"
	"nord/internal/search"
	"nord/internal/sim"
)

// wireSpecs are the specs behind TestCacheKeyGolden's three keys and one
// body per job kind, with the optional knobs and a string that needs
// every escape the quoter knows. The fuzz targets' seed corpus under
// testdata/fuzz/ holds the same bodies.
var wireSpecs = []string{
	`{"kind":"synthetic","synthetic":{"design":"nord","width":4,"height":4,"pattern":"uniform","rate":0.05,"warmup":10000,"measure":100000,"seed":1}}`,
	`{"kind":"workload","workload":{"design":"conv_pg","benchmark":"x264","scale":0.5,"seed":7}}`,
	`{"kind":"sweep","sweep":{"rates":[0.05,0.2],"seed":3}}`,
	`{"kind":"sweep","sweep":{"width":4,"height":4,"pattern":"uniform","measure":100000,"rates":[0.05,0.2],"seed":3}}`,
	`{"kind":"synthetic","synthetic":{"design":"no_pg","rate":0.1}}`,
	`{"kind":"synthetic","synthetic":{"design":"conv_pg_opt","width":8,"height":8,"topology":"torus","pattern":"transpose","rate":0.25,"warmup":0,"measure":5000,"seed":-9,"wakeup_latency":12,"no_perf_centric":true,"forced_off":true,"trace_events":true,"vcs":3,"buffer_depth":2,"gate_idle":4,"threshold_perf":1,"threshold_power":6}}`,
	`{"kind":"workload","workload":{"design":"nord","benchmark":"canneal","scale":0.05,"warmup":0,"seed":2,"max_cycles":400000,"trace_events":true}}`,
	`{"kind":"trace","trace":{"design":"nord","path":"traces/<a&b>\\\"\u2028\u00e9\\u0007.bin","warmup":3,"seed":4,"max_cycles":9}}`,
	`{"synthetic":{"seed":1,"rate":1e-3,"design":"NoRD","measure":1},"kind":"synthetic"}`,
}

// decodeRequest is handleSubmit's decode: unknown fields are errors.
func decodeRequest(data []byte) (*JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// canonicalAgree holds the compiled-plan encoder to the oracle walk on one
// value: same bytes, or both refuse.
func canonicalAgree(t *testing.T, v any) {
	t.Helper()
	got, gerr := CanonicalJSON(v)
	want, werr := oracleCanonicalJSON(v)
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("%#v: compiled plan err %v, oracle err %v", v, gerr, werr)
	}
	if gerr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%#v:\ncompiled %s\n  oracle %s", v, got, want)
	}
}

// TestCanonicalMatchesOracle: the compiled plan and the reflection walk it
// replaced agree on every kind of value the encoder accepts or refuses.
func TestCanonicalMatchesOracle(t *testing.T) {
	type inner struct {
		B  bool
		I8 int8
		U  uint16
		F  float32
		p  int // unexported: skipped
	}
	type outer struct {
		Z     string
		A     *inner
		Nil   *inner
		Any   any
		None  any
		Arr   [3]int
		Empty []string
		M     map[string][]float64
		IM    map[int]string
		Inner inner
	}
	seven := 7
	values := []any{
		nil, true, -3, uint8(200), 1e21, 1e-7, float32(0.1), math.MaxInt64, "",
		"plain", "q\"b\\s/<>&\b\f\n\r\t\x00\x1f\x7f\u2028\u2029é世\xff\xc3", []byte("ab"),
		&seven, []any{1, "a", nil, 2.5}, map[string]any{"b": 1, "a": map[string]int{"z": 1, "y": 2}},
		outer{Z: "z", A: &inner{B: true, I8: -8, U: 9, F: 2.5, p: 1}, Any: inner{}, Arr: [3]int{1, 2, 3},
			M: map[string][]float64{"k<": {1, 0.5}, "": nil}, IM: map[int]string{10: "x", 9: "y"}},
		goldenSynthConfig(),
		sim.WorkloadConfig{Design: noc.ConvPG, Benchmark: "x264", Scale: 0.5, Seed: 7}.Filled(),
		sim.TraceConfig{Design: noc.NoRD, Path: "a/b.trace"}.Filled(),
		sim.SweepConfig{Rates: []float64{0.05, 0.2}, Seed: 3}.Filled(),
		search.Spec{Seed: 5}.Filled(),
		math.NaN(), math.Inf(-1), float32(math.Inf(1)), struct{ F float64 }{math.NaN()},
		make(chan int), struct{ C func() }{}, map[string]any{"c": make(chan int)},
	}
	for _, s := range wireSpecs {
		req, err := decodeRequest([]byte(s))
		if err != nil {
			t.Fatalf("seed %s: %v", s, err)
		}
		values = append(values, req, *req)
	}
	for _, v := range values {
		canonicalAgree(t, v)
	}
}

// FuzzCanonicalJSON: whatever handleSubmit's decoder accepts, the compiled
// plan encodes exactly as the oracle walk does; so does a raw string (the
// decoder never yields invalid UTF-8, a Go caller can) and any float,
// where the non-finite ones must be refused by both. Seeds:
// testdata/fuzz/FuzzCanonicalJSON.
func FuzzCanonicalJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, s string, bits uint64) {
		x := math.Float64frombits(bits)
		canonicalAgree(t, struct {
			S string
			M map[string]string
		}{s, map[string]string{s: s, "k": s}})
		canonicalAgree(t, []any{x, float32(x)})
		if _, err := CanonicalJSON(x); (err != nil) != (math.IsNaN(x) || math.IsInf(x, 0)) {
			t.Fatalf("float %v: err %v", x, err)
		}
		req, err := decodeRequest(data)
		if err != nil {
			return
		}
		canonicalAgree(t, req)
		if req.Synthetic != nil {
			req.Synthetic.Rate = x
			canonicalAgree(t, req)
		}
	})
}

// spelledOut returns the request with every default written out, each
// read from the layer that owns it (noc.DefaultParams for the network,
// the sim configs' zero-value Filled for run lengths and names) — so a
// default that moves moves here too, and what the fuzzer checks is that
// writing it out names the same job.
func spelledOut(req JobRequest) JobRequest {
	intp := func(v int) *int { return &v }
	or := func(field *int, def int) {
		if *field == 0 {
			*field = def
		}
	}
	if req.Synthetic != nil {
		sp := *req.Synthetic
		d, _ := noc.DesignByName(sp.Design)
		p, run := noc.DefaultParams(d), sim.SynthConfig{}.Filled()
		or(&sp.Width, p.Width)
		or(&sp.Height, p.Height)
		or(&sp.Measure, run.Measure)
		or(&sp.VCs, p.VCsPerClass)
		or(&sp.BufferDepth, p.BufferDepth)
		or(&sp.GateIdle, p.GateIdleCycles)
		or(&sp.WakeupLatency, p.WakeupLatency)
		or(&sp.ThresholdPerf, p.ThresholdPerf)
		or(&sp.ThresholdPower, p.ThresholdPower)
		if sp.Topology == "" {
			sp.Topology = run.Topology
		}
		if sp.Pattern == "" {
			sp.Pattern = run.Pattern
		}
		if sp.Warmup == nil {
			sp.Warmup = intp(run.Warmup)
		}
		req.Synthetic = &sp
	}
	if req.Workload != nil {
		sp, run := *req.Workload, sim.WorkloadConfig{}.Filled()
		if sp.Scale == 0 {
			sp.Scale = run.Scale
		}
		if sp.Warmup == nil {
			sp.Warmup = intp(run.Warmup)
		}
		if sp.MaxCycles == 0 {
			sp.MaxCycles = run.MaxCycles
		}
		req.Workload = &sp
	}
	if req.Trace != nil {
		sp, run := *req.Trace, sim.TraceConfig{}.Filled()
		if sp.Warmup == nil {
			sp.Warmup = intp(run.Warmup)
		}
		if sp.MaxCycles == 0 {
			sp.MaxCycles = run.MaxCycles
		}
		req.Trace = &sp
	}
	if req.Sweep != nil {
		sp, run := *req.Sweep, sim.SweepConfig{}.Filled()
		or(&sp.Width, run.Width)
		or(&sp.Height, run.Height)
		or(&sp.Measure, run.Measure)
		if sp.Pattern == "" {
			sp.Pattern = run.Pattern
		}
		req.Sweep = &sp
	}
	return req
}

// inertScrambled returns the request with every knob its design or mode
// never reads (DESIGN.md §8, "Identity") set to a value derived from v:
// only a gated design has a controller to tune, only NoRD has thresholds
// and a planner, a forced-off NoRD router never wakes to use either, and
// a trace replay draws no random number.
func inertScrambled(req JobRequest, v uint8) JobRequest {
	if req.Trace != nil {
		sp := *req.Trace
		sp.Seed = int64(v)
		req.Trace = &sp
	}
	if req.Synthetic == nil {
		return req
	}
	sp := *req.Synthetic
	d, _ := noc.DesignByName(sp.Design)
	if d == noc.NoPG {
		sp.ForcedOff = v&2 != 0
	}
	if d == noc.NoPG || d == noc.NoRD && sp.ForcedOff {
		sp.GateIdle, sp.WakeupLatency = int(v), int(v)+7
	}
	if d != noc.NoRD || sp.ForcedOff {
		sp.ThresholdPerf, sp.ThresholdPower, sp.NoPerfCentric = int(v)/2, int(v), v&1 != 0
	}
	req.Synthetic = &sp
	return req
}

// permuteJSON re-emits a JSON document with every object's members
// rotated by rot places from sorted order, numbers kept verbatim.
func permuteJSON(t *testing.T, data []byte, rot int) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	var emit func(v any)
	emit = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			keys := make([]string, 0, len(v))
			for k := range v {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			sb.WriteByte('{')
			for i := range keys {
				k := keys[(i+rot)%len(keys)]
				if i > 0 {
					sb.WriteByte(',')
				}
				kb, _ := json.Marshal(k)
				sb.Write(kb)
				sb.WriteByte(':')
				emit(v[k])
			}
			sb.WriteByte('}')
		case []any:
			sb.WriteByte('[')
			for i, e := range v {
				if i > 0 {
					sb.WriteByte(',')
				}
				emit(e)
			}
			sb.WriteByte(']')
		default:
			b, _ := json.Marshal(v)
			sb.Write(b)
		}
	}
	emit(doc)
	return []byte(sb.String())
}

// FuzzResolveKeyStable: a spec that resolves keeps its key when its JSON
// members arrive in another order, when its defaults are spelled out and
// when the knobs its design never reads hold anything at all — the
// property the dedup index and the result cache stand on. Seeds:
// testdata/fuzz/FuzzResolveKeyStable.
func FuzzResolveKeyStable(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, rot uint8) {
		req, err := decodeRequest(data)
		if err != nil {
			return
		}
		base, err := resolveTask(req)
		if err != nil {
			return
		}
		again, err := resolveTask(req)
		if err != nil || again.key != base.key {
			t.Fatalf("resolving twice: %v, %s vs %s", err, again.key, base.key)
		}
		// Through the request's own marshalling (what a fleet worker and a
		// restarted coordinator re-resolve), members permuted, with the
		// defaults written out, and with the inert knobs scrambled.
		for name, r := range map[string]JobRequest{
			"as submitted": *req, "defaults spelled out": spelledOut(*req), "inert knobs scrambled": inertScrambled(*req, rot),
		} {
			body, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			req2, err := decodeRequest(permuteJSON(t, body, int(rot)))
			if err != nil {
				t.Fatalf("%s: permuted body does not decode: %v", name, err)
			}
			tk, err := resolveTask(req2)
			if err != nil {
				t.Fatalf("%s: resolved before, now: %v\n%s", name, err, body)
			}
			if tk.key != base.key || tk.traced != base.traced || tk.kind != base.kind {
				t.Fatalf("%s: key %s (%s traced=%v), want %s (%s traced=%v)\n%s", name, tk.key, tk.kind, tk.traced, base.key, base.kind, base.traced, body)
			}
		}
		if !bytes.Equal(base.request(), again.request()) {
			t.Fatal("request() differs between two resolutions of one spec")
		}
	})
}
