package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"

	"nord/internal/noc"
)

// RouterTable is Result.Routers: one noc.RouterReport per router, in
// router order. In Go it is the row slice every reader ranges over; on
// the wire it is a column table, one JSON array per RouterReport field
// holding that field for every router, so a job payload names each field
// once instead of once per router:
//
//	{"ID":[0,1,2,3],"X":[0,1,0,1],"Y":[0,0,1,1],"IdleFraction":[...],...}
//
// A column whose values are all zero is left out; ID is always written.
// A nil table is null. Decoding also accepts the row array this type used
// to be written as: payloads cached or spilled before the column form keep
// it until they are evicted.
type RouterTable []noc.RouterReport

// tableColumns is RouterReport turned on its side, derived once from its
// fields, so a field added to RouterReport is a column with nothing to
// keep in sync.
var tableColumns = columnsOf(reflect.TypeFor[noc.RouterReport]())

// columnPlan is the compiled codec: per column, the pre-quoted key, the
// row field and the appender that writes one value of it; and for
// decoding, a struct type with one []T field per column under the same
// JSON name, which encoding/json fills, type-checks and skips unknown
// columns for exactly as it does for rows.
type columnPlan struct {
	cols []column
	id   int          // the ID column, the only one never omitted
	typ  reflect.Type // struct{ ID []int `json:"ID"`; X []int `json:"X"`; ... }
}

type column struct {
	key   string // `"Name":`
	field int    // index in noc.RouterReport
	put   func([]byte, reflect.Value) ([]byte, error)
}

// name is the column's quoted JSON name, for errors.
func (c column) name() string { return strings.TrimSuffix(c.key, ":") }

func columnsOf(row reflect.Type) columnPlan {
	p := columnPlan{id: -1}
	var fields []reflect.StructField
	for i := 0; i < row.NumField(); i++ {
		f := row.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || name == "-" {
			continue
		}
		if name == "" {
			name = f.Name
		}
		if f.Name == "ID" {
			p.id = len(p.cols)
		}
		key, _ := json.Marshal(name)
		p.cols = append(p.cols, column{key: string(key) + ":", field: i, put: appenderFor(f.Type)})
		fields = append(fields, reflect.StructField{Name: f.Name, Type: reflect.SliceOf(f.Type),
			Tag: reflect.StructTag(`json:` + strconv.Quote(name))})
	}
	if p.id < 0 {
		panic("sim: noc.RouterReport has no ID field")
	}
	p.typ = reflect.StructOf(fields)
	return p
}

// appenderFor returns a function that appends one value of type t as
// encoding/json writes it: numbers and booleans directly, anything else
// through json.Marshal.
func appenderFor(t reflect.Type) func([]byte, reflect.Value) ([]byte, error) {
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return func(b []byte, v reflect.Value) ([]byte, error) { return strconv.AppendInt(b, v.Int(), 10), nil }
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return func(b []byte, v reflect.Value) ([]byte, error) { return strconv.AppendUint(b, v.Uint(), 10), nil }
	case reflect.Bool:
		return func(b []byte, v reflect.Value) ([]byte, error) { return strconv.AppendBool(b, v.Bool()), nil }
	case reflect.Float64:
		return func(b []byte, v reflect.Value) ([]byte, error) { return appendFloat(b, v.Float()) }
	}
	return func(b []byte, v reflect.Value) ([]byte, error) {
		enc, err := json.Marshal(v.Interface())
		return append(b, enc...), err
	}
}

// appendFloat writes f as encoding/json writes a float64: shortest
// round-trip digits, exponent form outside [1e-6, 1e21) with an unpadded
// exponent, and an error for NaN and infinities.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("sim: router table value %v is not valid JSON", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 -> e-7
		b = b[:n-1]
	}
	return b, nil
}

// MarshalJSON writes the column table.
func (t RouterTable) MarshalJSON() ([]byte, error) {
	if t == nil {
		return []byte("null"), nil
	}
	rows := reflect.ValueOf([]noc.RouterReport(t))
	b := make([]byte, 0, 64*len(t)+64)
	b = append(b, '{')
	var err error
	for c, col := range tableColumns.cols {
		if c != tableColumns.id && allZero(rows, col.field) {
			continue
		}
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = append(append(b, col.key...), '[')
		for i := range t {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = col.put(b, rows.Index(i).Field(col.field)); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

func allZero(rows reflect.Value, field int) bool {
	for i := 0; i < rows.Len(); i++ {
		if !rows.Index(i).Field(field).IsZero() {
			return false
		}
	}
	return true
}

// UnmarshalJSON reads the column table, or the legacy row array. Bodies
// reach it from outside the process (a spill file, a PUT /v1/cache/{key}), so
// a table without an ID column, or with a column longer or shorter than
// ID, is an error rather than a short or padded table.
func (t *RouterTable) UnmarshalJSON(b []byte) error {
	b = bytes.Trim(b, " \t\r\n")
	switch {
	case string(b) == "null":
		*t = nil
		return nil
	case len(b) > 0 && b[0] == '[':
		return json.Unmarshal(b, (*[]noc.RouterReport)(t))
	}
	ptr := reflect.New(tableColumns.typ)
	if err := json.Unmarshal(b, ptr.Interface()); err != nil {
		return err
	}
	cols := ptr.Elem()
	id := cols.Field(tableColumns.id)
	if id.IsNil() {
		return fmt.Errorf("sim: router table has no %s column", tableColumns.cols[tableColumns.id].name())
	}
	n := id.Len()
	for c := range tableColumns.cols {
		if col := cols.Field(c); !col.IsNil() && col.Len() != n {
			return fmt.Errorf("sim: router table column %s has %d values, not %d",
				tableColumns.cols[c].name(), col.Len(), n)
		}
	}
	out := make(RouterTable, n)
	rows := reflect.ValueOf([]noc.RouterReport(out))
	for c, col := range tableColumns.cols {
		vals := cols.Field(c)
		for i := 0; i < vals.Len(); i++ {
			rows.Index(i).Field(col.field).Set(vals.Index(i))
		}
	}
	*t = out
	return nil
}
