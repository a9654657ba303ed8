package serve

import (
	"strings"
	"testing"

	"nord/internal/noc"
	"nord/internal/sim"
)

// Golden cache keys. These constants pin the canonical encoding: if a
// refactor (field reordering, map iteration, default-filling changes that
// keep the same filled values) alters them, every previously cached
// result would be orphaned — so a change here must be deliberate.
// (Deliberately rotated when SynthConfig gained VCsPerClass/BufferDepth/
// GateIdleCycles, and again when it gained Topology: filled configs now
// carry those fields, so every earlier cached synthetic result is
// orphaned on purpose — the old keys couldn't distinguish topologies.)
const (
	goldenSynthKey    = "ab93837597088efef0604b843f946abe70fbb740cd61807207fe946f418e13fc"
	goldenWorkloadKey = "0360f9816fae68ea13f7043a30a09d8e0cc179272b6fb1c4bdbb375bf3be8a5a"
	// goldenSweepKey was minted at commit 0f9dea8, when the sweep key
	// hashed a hand-normalised SweepSpec; hashing sim.SweepConfig.Filled()
	// must keep producing it.
	goldenSweepKey = "2efd52ef55f2a4d23932c0d368e0ca905db03e8361efc6b6a0c99d55dbc415c9"
)

func goldenSynthConfig() sim.SynthConfig {
	return sim.SynthConfig{
		Design: noc.NoRD, Width: 4, Height: 4,
		Pattern: "uniform", Rate: 0.05,
		Warmup: 10_000, Measure: 100_000, Seed: 1,
	}.Filled()
}

func TestCacheKeyGolden(t *testing.T) {
	k, err := CacheKey("synthetic", goldenSynthConfig())
	if err != nil {
		t.Fatal(err)
	}
	if k != goldenSynthKey {
		t.Fatalf("synthetic key drifted:\n got %s\nwant %s", k, goldenSynthKey)
	}
	w := sim.WorkloadConfig{Design: noc.ConvPG, Benchmark: "x264", Scale: 0.5, Seed: 7}.Filled()
	k2, err := CacheKey("workload", w)
	if err != nil {
		t.Fatal(err)
	}
	if k2 != goldenWorkloadKey {
		t.Fatalf("workload key drifted:\n got %s\nwant %s", k2, goldenWorkloadKey)
	}
	// Through the real resolve path, defaults implicit and spelled out.
	for _, sp := range []SweepSpec{
		{Rates: []float64{0.05, 0.2}, Seed: 3},
		{Width: 4, Height: 4, Pattern: "uniform", Measure: 100_000, Rates: []float64{0.05, 0.2}, Seed: 3},
	} {
		tk, err := resolveSpec(&JobRequest{Kind: "sweep", Sweep: &sp})
		if err != nil {
			t.Fatal(err)
		}
		if tk.key != goldenSweepKey {
			t.Fatalf("sweep key drifted for %+v:\n got %s\nwant %s", sp, tk.key, goldenSweepKey)
		}
	}
}

// TestCacheKeyDefaultFillEquivalence: a config with defaults spelled out
// explicitly must key identically to one that relied on Filled() to
// supply them.
func TestCacheKeyDefaultFillEquivalence(t *testing.T) {
	implicit := sim.SynthConfig{
		Design: noc.NoRD, Width: 4, Height: 4,
		Pattern: "uniform", Rate: 0.05,
		Warmup: 10_000, Measure: 100_000, Seed: 1,
	}.Filled()
	explicit := implicit // already filled: re-filling must be a fixpoint
	k1, err := CacheKey("synthetic", implicit)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := CacheKey("synthetic", explicit.Filled())
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("Filled() is not a fixpoint for keying: %s vs %s", k1, k2)
	}
}

// TestCanonicalJSONFieldOrder: two struct types with the same fields
// declared in different orders must encode identically.
func TestCanonicalJSONFieldOrder(t *testing.T) {
	type A struct {
		X int
		Y string
		Z float64
	}
	type B struct {
		Z float64
		Y string
		X int
	}
	a, err := CanonicalJSON(A{X: 1, Y: "hi", Z: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CanonicalJSON(B{X: 1, Y: "hi", Z: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("field order leaked into encoding:\n%s\n%s", a, b)
	}
	want := `{"X":1,"Y":"hi","Z":2.5}`
	if string(a) != want {
		t.Fatalf("got %s want %s", a, want)
	}
}

// TestCanonicalJSONMapOrder: map iteration order must not leak.
func TestCanonicalJSONMapOrder(t *testing.T) {
	m := map[string]int{"zebra": 1, "apple": 2, "mango": 3}
	want := `{"apple":2,"mango":3,"zebra":1}`
	for i := 0; i < 32; i++ { // many rounds to catch randomized iteration
		got, err := CanonicalJSON(m)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("round %d: got %s want %s", i, got, want)
		}
	}
}

// TestCanonicalJSONNilAndPointers: nil pointers encode as null, nil
// slices as [], and pointers are transparent.
func TestCanonicalJSONNilAndPointers(t *testing.T) {
	type Inner struct{ N int }
	type Outer struct {
		P *Inner
		S []int
	}
	got, err := CanonicalJSON(Outer{})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"P":null,"S":[]}` {
		t.Fatalf("got %s", got)
	}
	got, err = CanonicalJSON(Outer{P: &Inner{N: 4}, S: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"P":{"N":4},"S":[1,2]}` {
		t.Fatalf("got %s", got)
	}
}

// TestCanonicalJSONRejectsNaN: non-finite floats cannot be canonically
// addressed and must error rather than silently corrupt a key.
func TestCanonicalJSONRejectsNaN(t *testing.T) {
	type F struct{ V float64 }
	nan := 0.0
	nan = nan / nan
	if _, err := CanonicalJSON(F{V: nan}); err == nil {
		t.Fatal("NaN accepted")
	}
}

// TestCacheKeyKindSeparation: the kind prefix partitions the key space.
func TestCacheKeyKindSeparation(t *testing.T) {
	cfg := goldenSynthConfig()
	k1, err := CacheKey("synthetic", cfg)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := CacheKey("other", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatal("kind does not partition the key space")
	}
	if len(k1) != 64 || strings.ToLower(k1) != k1 {
		t.Fatalf("key %q is not lowercase hex sha-256", k1)
	}
}
