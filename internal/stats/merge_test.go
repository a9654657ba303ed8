package stats

import (
	"reflect"
	"testing"
)

// fillNoC stamps every field of a collector with a distinct non-zero
// value via reflection, failing the test on any field kind it does not
// know how to populate — which is exactly what happens when a new field
// is added to NoC without teaching Merge about it.
func fillNoC(t *testing.T, n *NoC) {
	t.Helper()
	v := reflect.ValueOf(n).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		switch f := v.Field(i).Addr().Interface().(type) {
		case *uint64:
			*f = uint64(i + 1)
		case *Sample:
			f.Add(float64(i + 1))
			f.Add(float64(2 * (i + 1)))
		case **Histogram:
			(*f).Add(uint64(i + 1))
			(*f).Add(uint64(i + 100)) // land one in the overflow bucket too
		default:
			t.Fatalf("NoC field %s has kind %T the merge test cannot populate; teach fillNoC (and NoC.Merge) about it", name, f)
		}
	}
}

// derived lists the NoC fields Merge does not fold: noc derives them from
// its routers' and NIs' own counts at every read (Network.foldStats), or,
// for Cycles and PacketsInjected, writes them only into the master
// collector.
var derived = map[string]bool{
	"Cycles": true, "PacketsInjected": true,
	"MisroutedHops": true, "EscapedPackets": true,
	"Wakeups": true, "GateOffs": true, "WakeupStall": true,
	"RouterOnCycles": true, "RouterOffCycles": true, "RouterWakingCycles": true,
	"BufWrites": true, "VAArbs": true, "SAArbs": true, "LinkTraversals": true,
	"BypassHops": true, "BypassInjections": true, "BypassEjections": true, "LocalFlits": true,
	"NIVCRequests": true, "IdleCycles": true, "BusyCycles": true,
}

// TestNoCMergeCoversAllFields is the guard referenced by NoC.Merge's doc
// comment: every field is either folded by Merge or on the derived list,
// never both. Merging a fully-populated collector into a zero one must
// reproduce every folded field exactly and leave every derived one zero,
// so a field added to the struct and to neither list fails here (as a
// field Merge dropped, or as an unknown kind in fillNoC) — the sharded
// kernel's per-shard samples rely on Merge being lossless.
func TestNoCMergeCoversAllFields(t *testing.T) {
	src := NewNoC(64)
	fillNoC(t, src)

	dst := NewNoC(64)
	dst.Merge(src)

	sv := reflect.ValueOf(src).Elem()
	dv := reflect.ValueOf(dst).Elem()
	zero := reflect.ValueOf(NewNoC(64)).Elem()
	folded := 0
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		got := dv.Field(i).Interface()
		switch {
		case derived[name]:
			if !reflect.DeepEqual(got, zero.Field(i).Interface()) {
				t.Errorf("field %s is derived, yet Merge folds it: merged %+v", name, got)
			}
		case !reflect.DeepEqual(sv.Field(i).Interface(), got):
			t.Errorf("field %s is neither derived nor carried over by Merge: src %+v, merged %+v",
				name, sv.Field(i).Interface(), got)
		default:
			folded++
		}
	}
	for name := range derived {
		if !sv.FieldByName(name).IsValid() {
			t.Errorf("derived field %s is not a NoC field", name)
		}
	}
	if folded != 7 {
		t.Errorf("Merge folds %d fields, want the 7 a shard samples", folded)
	}

	// Merging twice must double every folded field (sums, not
	// overwrites): catches a Merge clause written as assignment.
	dst.Merge(src)
	if dst.PacketsDelivered != 2*src.PacketsDelivered || dst.PacketLatency.N != 2*src.PacketLatency.N ||
		dst.IdlePeriods.Count() != 2*src.IdlePeriods.Count() {
		t.Errorf("second merge did not accumulate: %+v", dst)
	}
}
