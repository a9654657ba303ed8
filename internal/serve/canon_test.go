package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
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
	for _, sp := range []sim.SweepConfig{
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

// oracleCanonicalJSON is the canonical encoder as it was before the
// compiled plan replaced it in canon.go: a per-call reflection walk that
// re-sorts every struct's fields and quotes every string through
// json.Marshal. It lives on here as the differential oracle — the two
// must agree byte for byte on every value (TestCanonicalMatchesOracle,
// FuzzCanonicalJSON), which is what keeps every minted cache key valid.
func oracleCanonicalJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := oracleWriteCanonical(&buf, reflect.ValueOf(v)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func oracleWriteCanonical(buf *bytes.Buffer, v reflect.Value) error {
	if !v.IsValid() {
		buf.WriteString("null")
		return nil
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			buf.WriteString("null")
			return nil
		}
		return oracleWriteCanonical(buf, v.Elem())
	case reflect.Struct:
		t := v.Type()
		type field struct {
			name string
			val  reflect.Value
		}
		fields := make([]field, 0, t.NumField())
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			fields = append(fields, field{f.Name, v.Field(i)})
		}
		sort.Slice(fields, func(i, j int) bool { return fields[i].name < fields[j].name })
		buf.WriteByte('{')
		for i, f := range fields {
			if i > 0 {
				buf.WriteByte(',')
			}
			oracleWriteJSONString(buf, f.name)
			buf.WriteByte(':')
			if err := oracleWriteCanonical(buf, f.val); err != nil {
				return err
			}
		}
		buf.WriteByte('}')
		return nil
	case reflect.Map:
		type pair struct {
			key string
			val reflect.Value
		}
		pairs := make([]pair, 0, v.Len())
		iter := v.MapRange()
		for iter.Next() {
			k := iter.Key()
			var ks string
			if k.Kind() == reflect.String {
				ks = k.String()
			} else {
				ks = fmt.Sprint(k.Interface())
			}
			pairs = append(pairs, pair{ks, iter.Value()})
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].key < pairs[j].key })
		buf.WriteByte('{')
		for i, p := range pairs {
			if i > 0 {
				buf.WriteByte(',')
			}
			oracleWriteJSONString(buf, p.key)
			buf.WriteByte(':')
			if err := oracleWriteCanonical(buf, p.val); err != nil {
				return err
			}
		}
		buf.WriteByte('}')
		return nil
	case reflect.Slice, reflect.Array:
		buf.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				buf.WriteByte(',')
			}
			if err := oracleWriteCanonical(buf, v.Index(i)); err != nil {
				return err
			}
		}
		buf.WriteByte(']')
		return nil
	case reflect.Bool:
		buf.WriteString(strconv.FormatBool(v.Bool()))
		return nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		buf.WriteString(strconv.FormatInt(v.Int(), 10))
		return nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		buf.WriteString(strconv.FormatUint(v.Uint(), 10))
		return nil
	case reflect.Float32, reflect.Float64:
		f := v.Float()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("serve: cannot canonicalise non-finite float %v", f)
		}
		bits := 64
		if v.Kind() == reflect.Float32 {
			bits = 32
		}
		buf.WriteString(strconv.FormatFloat(f, 'g', -1, bits))
		return nil
	case reflect.String:
		oracleWriteJSONString(buf, v.String())
		return nil
	default:
		return fmt.Errorf("serve: cannot canonicalise kind %v", v.Kind())
	}
}

func oracleWriteJSONString(buf *bytes.Buffer, s string) {
	b, _ := json.Marshal(s) // marshalling a string cannot fail
	buf.Write(b)
}
