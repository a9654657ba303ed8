// Package serve is the simulation-as-a-service layer: an HTTP/JSON job
// API over the sim runners with a content-addressed result cache, a
// bounded worker-pool scheduler with queue-depth backpressure, NDJSON
// progress streaming, Prometheus-text metrics and graceful drain.
//
// Identical design points are deduplicated twice over: concurrent
// submissions of the same canonical config coalesce onto one in-flight
// job, and completed runs are memoized under a canonical hash of the
// fully-filled config, so repeated sweeps and design comparisons cost one
// simulation each.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"unicode/utf8"
)

// CanonicalJSON serialises v deterministically for content addressing:
// struct fields and map keys are emitted sorted by name, floats in
// shortest round-trip form, nil pointers as null, and nil slices as [] —
// so a semantically identical config always yields the same bytes,
// independent of Go struct field order, map iteration order, or whether
// defaults were filled explicitly or implicitly.
func CanonicalJSON(v any) ([]byte, error) {
	return appendCanonical(make([]byte, 0, canonBufSize), reflect.ValueOf(v))
}

// canonBufSize holds a filled sim config (about 600 bytes) without a
// regrow.
const canonBufSize = 1024

// canonField is one exported struct field in a compiled plan: its
// pre-quoted `"Name":` key and its index in the struct.
type canonField struct {
	key   string
	index int
}

// canonPlans caches each struct type's fields, sorted by name once. The
// set of types that reach CanonicalJSON is closed and tiny (the sim
// configs and search.Spec), so entries are never evicted.
var canonPlans sync.Map // reflect.Type -> []canonField

func canonPlan(t reflect.Type) []canonField {
	if p, ok := canonPlans.Load(t); ok {
		return p.([]canonField)
	}
	fields := make([]canonField, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.IsExported() {
			fields = append(fields, canonField{key: string(appendJSONString(nil, f.Name)) + ":", index: i})
		}
	}
	sort.Slice(fields, func(i, j int) bool {
		return t.Field(fields[i].index).Name < t.Field(fields[j].index).Name
	})
	p, _ := canonPlans.LoadOrStore(t, fields)
	return p.([]canonField)
}

func appendCanonical(buf []byte, v reflect.Value) ([]byte, error) {
	if !v.IsValid() {
		return append(buf, "null"...), nil
	}
	var err error
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return append(buf, "null"...), nil
		}
		return appendCanonical(buf, v.Elem())
	case reflect.Struct:
		buf = append(buf, '{')
		for i, f := range canonPlan(v.Type()) {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, f.key...)
			if buf, err = appendCanonical(buf, v.Field(f.index)); err != nil {
				return nil, err
			}
		}
		return append(buf, '}'), nil
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
		buf = append(buf, '{')
		for i, p := range pairs {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(appendJSONString(buf, p.key), ':')
			if buf, err = appendCanonical(buf, p.val); err != nil {
				return nil, err
			}
		}
		return append(buf, '}'), nil
	case reflect.Slice, reflect.Array:
		buf = append(buf, '[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				buf = append(buf, ',')
			}
			if buf, err = appendCanonical(buf, v.Index(i)); err != nil {
				return nil, err
			}
		}
		return append(buf, ']'), nil
	case reflect.Bool:
		return strconv.AppendBool(buf, v.Bool()), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(buf, v.Int(), 10), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return strconv.AppendUint(buf, v.Uint(), 10), nil
	case reflect.Float32, reflect.Float64:
		f := v.Float()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("serve: cannot canonicalise non-finite float %v", f)
		}
		bits := 64
		if v.Kind() == reflect.Float32 {
			bits = 32
		}
		return strconv.AppendFloat(buf, f, 'g', -1, bits), nil
	case reflect.String:
		return appendJSONString(buf, v.String()), nil
	default:
		return nil, fmt.Errorf("serve: cannot canonicalise kind %v", v.Kind())
	}
}

// appendJSONString quotes s exactly as json.Marshal does (HTML-sensitive
// characters, control characters, invalid UTF-8 and U+2028/9 escaped),
// without allocating: cache keys minted through json.Marshal stay valid.
func appendJSONString(buf []byte, s string) []byte {
	const hex = "0123456789abcdef"
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= utf8.RuneSelf {
			c, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case c == utf8.RuneError && size == 1:
				buf = append(append(buf, s[start:i]...), `\ufffd`...)
			case c == '\u2028' || c == '\u2029':
				buf = append(append(buf, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
			default:
				i += size
				continue
			}
			i += size
			start = i
			continue
		}
		if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
			i++
			continue
		}
		buf = append(buf, s[start:i]...)
		switch b {
		case '\\', '"':
			buf = append(buf, '\\', b)
		case '\b':
			buf = append(buf, '\\', 'b')
		case '\f':
			buf = append(buf, '\\', 'f')
		case '\n':
			buf = append(buf, '\\', 'n')
		case '\r':
			buf = append(buf, '\\', 'r')
		case '\t':
			buf = append(buf, '\\', 't')
		default:
			buf = append(buf, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
		}
		i++
		start = i
	}
	return append(append(buf, s[start:]...), '"')
}

// CacheKey returns the content address of a job: the hex SHA-256 over the
// job kind and the canonical encoding of its fully-filled config. Two
// requests that resolve to the same simulation share a key, whatever the
// JSON field order or defaulting path that produced them.
func CacheKey(kind string, cfg any) (string, error) {
	buf := append(append(make([]byte, 0, canonBufSize), kind...), 0)
	buf, err := appendCanonical(buf, reflect.ValueOf(cfg))
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), nil
}
