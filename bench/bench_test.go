package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	samples := make([]float64, 0, 400)
	for i := 1; i <= 199; i++ {
		samples = append(samples, float64(i))
	}
	p50, p95, n := percentiles(samples)
	if n != 199 || p50 != 100 {
		t.Fatalf("199 samples: p50=%v n=%d, want 100 and 199", p50, n)
	}
	if p95 != 0 {
		t.Errorf("p95=%v from %d samples: fewer than %d must not report one", p95, n, minP95Samples)
	}
	samples = append(samples, 200)
	_, p95, n = percentiles(samples)
	if n != 200 || p95 != 190 {
		t.Errorf("200 samples: p95=%v n=%d, want 190 (ten samples beyond it) and 200", p95, n)
	}
	if p50, p95, n := percentiles(nil); p50 != 0 || p95 != 0 || n != 0 {
		t.Errorf("no samples: got %v %v %d", p50, p95, n)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", m)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	u := time.Microsecond
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100 * u},
		{Name: "a", Parent: 0, Start: 10 * u, End: 40 * u},       // nested child
		{Name: "a.inner", Parent: 1, Start: 15 * u, End: 25 * u}, // grandchild: not root's child
		{Name: "b", Parent: 0, Start: 30 * u, End: 60 * u},       // overlaps a by 10
		{Name: "c", Parent: 0, Start: 90 * u, End: 120 * u},      // sticks out of root by 20
		{Name: "other", Parent: -1, Track: 1, Start: 0, End: 50 * u},
	}
	want := []time.Duration{40 * u, 20 * u, 10 * u, 30 * u, 30 * u, 50 * u}
	got := selfTimes(spans)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}

	// Through the recorder: properly nested spans cover their track exactly.
	tr := newTracer()
	main, side := tr.newTrack(), tr.newTrack()
	main.begin("bench.root", "", 0)
	main.begin("layer.call", "x", 1)
	start := main.now()
	main.leaf("layer.batch", "x", 1, start, 0)
	main.end()
	main.end()
	side.begin("bench.client", "", 2)
	side.end()
	ss := newSpanSet(tr)
	if len(ss.spans) != 4 || ss.spans[3].Track != 1 || ss.spans[3].Parent != -1 || ss.spans[2].Parent != 1 {
		t.Fatalf("merged spans wrong: %+v", ss.spans)
	}
	if cov := ss.selfCoverage(); cov < 0.999 || cov > 1.001 {
		t.Errorf("selfCoverage = %v for properly nested spans, want 1", cov)
	}
	var nilTrack *track
	nilTrack.begin("x", "", 0) // the untraced run records on nil tracks
	nilTrack.leaf("x", "", 0, 0, 0)
	nilTrack.end()
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, b, other := &config{seed: 7}, &config{seed: 7}, &config{seed: 8}
	for i := -3; i < 5; i++ {
		if !bytes.Equal(jobBody(a, i), jobBody(b, i)) {
			t.Fatalf("job %d differs between two runs of seed 7", i)
		}
		if bytes.Equal(jobBody(a, i), jobBody(other, i)) {
			t.Errorf("job %d is the same for seeds 7 and 8", i)
		}
		if bytes.Equal(jobBody(a, i), jobBody(a, i+1)) {
			t.Errorf("jobs %d and %d are the same spec", i, i+1)
		}
	}
	if !reflect.DeepEqual(zipfIndices(7, 500, 256), zipfIndices(7, 500, 256)) {
		t.Error("Zipf draws differ between two runs of one seed")
	}
	for _, k := range zipfIndices(7, 500, 256) {
		if k < 0 || k >= 256 {
			t.Fatalf("Zipf draw %d outside the 256 keys", k)
		}
	}
	if !reflect.DeepEqual(searchSpec(a, 1), searchSpec(b, 1)) || reflect.DeepEqual(searchSpec(a, 1), searchSpec(other, 1)) {
		t.Error("search spec is not a function of the seed alone")
	}
	for _, name := range []string{"kernel_busy", "sweep_short"} {
		x := newWorkload(&config{workload: name, seed: 7}).(*synthWorkload)
		y := newWorkload(&config{workload: name, seed: 7}).(*synthWorkload)
		if !reflect.DeepEqual(x.cells, y.cells) {
			t.Errorf("%s cells differ between two runs of one seed", name)
		}
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func wantManifest() manifest {
	m := manifest{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: 10}
	for _, w := range workloadDefs {
		m.Workloads = append(m.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}

func TestManifestMatchesRegistry(t *testing.T) {
	want := wantManifest()
	wantJSON, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json and metrics.go disagree; metrics.go gives:\n%s", wantJSON)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}

	// The contract's limits on the registry itself.
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the contract's pattern", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2 to 8", n)
	}
	for _, w := range workloadDefs {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1 to 128", n)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q breaks the contract's pattern", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
}

// testConfig is the -quick configuration the smoke tests run.
func testConfig(t *testing.T, workload string, trace bool) *config {
	t.Helper()
	var golden goldenFile
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return &config{workload: workload, seed: goldenSeed, seconds: 4, trace: trace, quick: true, root: root, golden: golden.Digests}
}

func metricNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

// TestQuickLadder runs every workload at 1/20 size, untraced and traced,
// so the harness cannot rot between benchmark runs: every run must be
// correct, and must emit exactly the names BENCHMARK.json lists.
func TestQuickLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all eight workloads")
	}
	for _, w := range workloadDefs {
		for _, trace := range []bool{false, true} {
			cfg := testConfig(t, w.Name, trace)
			rep, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			if !rep.correct || rep.attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%v", w.Name, trace, rep.correct, rep.attempted, rep.failed, rep.lines)
			}
			want := metricNames(endToEnd)
			if trace {
				want = metricNames(perLayer)
			}
			got := make([]string, 0, len(rep.metrics))
			for name, v := range rep.metrics {
				got = append(got, name)
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, v.Value)
				}
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%t emitted %v, BENCHMARK.json lists %v", w.Name, trace, got, want)
			}
			if trace {
				path := filepath.Join(cfg.root, "bench", "out", "trace-"+w.Name+".json")
				raw, err := os.ReadFile(path)
				var doc struct {
					TraceEvents []chromeEvent `json:"traceEvents"`
				}
				if err != nil || json.Unmarshal(raw, &doc) != nil || len(doc.TraceEvents) == 0 {
					t.Errorf("%s: %s is not a loadable trace (%v)", w.Name, path, err)
				}
			}
		}
	}
}

func TestTamperedGoldenFails(t *testing.T) {
	cfg := testConfig(t, "kernel_nord_low", false)
	tampered := map[string]string{}
	for k, v := range cfg.golden {
		tampered[k] = v
	}
	d := []byte(tampered[cfg.goldenKey()])
	if len(d) == 0 {
		t.Fatalf("golden.json has no digest for %s", cfg.goldenKey())
	}
	d[0] ^= 1 // '0'<->'1', 'a'<->'`': no longer the digest either way
	tampered[cfg.goldenKey()] = string(d)
	cfg.golden = tampered
	rep, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.correct || rep.failed == 0 {
		t.Errorf("a tampered golden digest passed: correct=%t failed=%d", rep.correct, rep.failed)
	}

	cfg = testConfig(t, "kernel_nord_low", false)
	delete(cfg.golden, cfg.goldenKey())
	if rep, err := runWorkload(cfg); err != nil || rep.correct {
		t.Errorf("a missing golden digest passed (err=%v)", err)
	}
}
