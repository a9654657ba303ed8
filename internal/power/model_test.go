package power

import (
	"math"
	"reflect"
	"testing"
)

func model(t *testing.T, node int, v float64) *Model {
	t.Helper()
	m, err := New(Tech{NodeNM: node, Voltage: v, FreqGHz: 3.0})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Tech{NodeNM: 90, Voltage: 1.0, FreqGHz: 3}); err == nil {
		t.Error("unsupported node should fail")
	}
	if _, err := New(Tech{NodeNM: 45, Voltage: 0, FreqGHz: 3}); err == nil {
		t.Error("zero voltage should fail")
	}
	if _, err := New(Tech{NodeNM: 45, Voltage: 1.0, FreqGHz: 0}); err == nil {
		t.Error("zero frequency should fail")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with bad tech should panic")
		}
	}()
	MustNew(Tech{NodeNM: 1, Voltage: 1, FreqGHz: 1})
}

// Figure 1(a) anchors: the static share of total router power at
// PARSEC-average load.
func TestStaticShareMatchesFigure1a(t *testing.T) {
	cases := []struct {
		node int
		v    float64
		want float64
	}{
		{65, 1.2, 0.179},
		{45, 1.1, 0.354},
		{32, 1.0, 0.477},
	}
	for _, c := range cases {
		m := model(t, c.node, c.v)
		got := m.StaticShareAtReferenceLoad()
		if math.Abs(got-c.want) > 0.005 {
			t.Errorf("%dnm/%.1fV static share = %.3f, want %.3f", c.node, c.v, got, c.want)
		}
	}
}

// Static share increases monotonically as voltage decreases at a fixed
// node and as the node shrinks at fixed voltage (the Figure 1a trend).
func TestStaticShareTrend(t *testing.T) {
	for _, node := range []int{65, 45, 32} {
		prev := -1.0
		for _, v := range []float64{1.2, 1.1, 1.0} {
			share := model(t, node, v).StaticShareAtReferenceLoad()
			if share <= prev {
				t.Errorf("%dnm: share not increasing as voltage drops (%.3f after %.3f)", node, share, prev)
			}
			prev = share
		}
	}
	for _, v := range []float64{1.2, 1.1, 1.0} {
		prev := -1.0
		for _, node := range []int{65, 45, 32} {
			share := model(t, node, v).StaticShareAtReferenceLoad()
			if share <= prev {
				t.Errorf("%.1fV: share not increasing as node shrinks", v)
			}
			prev = share
		}
	}
}

// Figure 1(b): decomposition at 45nm/1.0V.
func TestBreakdownMatchesFigure1b(t *testing.T) {
	m := model(t, 45, 1.0)
	got := m.BreakdownAtReferenceLoad()
	want := map[string]float64{
		"buffer_static": 0.21,
		"va_static":     0.07,
		"sa_static":     0.02,
		"xbar_static":   0.05,
		"clock_static":  0.04,
		"dynamic":       0.62,
	}
	sum := 0.0
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("missing component %q", k)
		}
		if math.Abs(g-w) > 0.02 {
			t.Errorf("%s = %.3f, want %.3f (±0.02)", k, g, w)
		}
		sum += g
	}
	if math.Abs(sum-1.0) > 1e-9 {
		t.Errorf("breakdown sums to %v, want 1", sum)
	}
}

func TestBreakevenTimeSemantics(t *testing.T) {
	m := model(t, 45, 1.1)
	// Being off for exactly BET cycles saves WakeupEnergy.
	saved := m.BreakevenCycles * m.RouterStaticW() * m.CycleSeconds()
	if math.Abs(saved-m.WakeupEnergy())/saved > 1e-12 {
		t.Errorf("BET semantics broken: saved %v, overhead %v", saved, m.WakeupEnergy())
	}
}

func TestEnergyAccounting(t *testing.T) {
	m := model(t, 45, 1.1)
	c := Counts{
		Cycles:  1000,
		Routers: 16,
		Links:   48,
		Events: Events{
			OnCycles:       16000, // all on the whole time
			BufWrites:      100,
			VAGrants:       20,
			SAGrants:       100,
			LinkTraversals: 100,
		},
	}
	b := m.Energy(c)
	wantStatic := 16000.0 * m.RouterStaticW() * m.CycleSeconds()
	if math.Abs(b.RouterStatic-wantStatic)/wantStatic > 1e-12 {
		t.Errorf("router static = %v, want %v", b.RouterStatic, wantStatic)
	}
	if b.PGOverhead != 0 {
		t.Errorf("no wakeups but overhead %v", b.PGOverhead)
	}
	if b.Total() <= 0 {
		t.Error("non-positive total energy")
	}
	// A fully-dynamic count set decomposes additively.
	sum := b.RouterStatic + b.RouterDynamic + b.LinkStatic + b.LinkDynamic + b.PGOverhead
	if math.Abs(sum-b.Total()) > 1e-18 {
		t.Errorf("Total() mismatch: %v vs %v", b.Total(), sum)
	}
}

func TestEnergyGatedResiduals(t *testing.T) {
	m := model(t, 45, 1.1)
	base := Counts{Cycles: 1000, Routers: 16, Links: 48, Events: Events{OffCycles: 16000}}
	plain := m.Energy(base)
	if plain.RouterStatic != 0 {
		t.Errorf("no-controller design leaked %v while off", plain.RouterStatic)
	}
	withCtl := base
	withCtl.Blocks.PGSwitch = true
	e1 := m.Energy(withCtl)
	if e1.RouterStatic <= 0 {
		t.Error("controller residual missing")
	}
	withBoth := withCtl
	withBoth.Blocks.Bypass = true
	e2 := m.Energy(withBoth)
	if e2.RouterStatic <= e1.RouterStatic {
		t.Error("bypass residual missing")
	}
	// Residuals are small relative to full-on static.
	fullOn := Counts{Cycles: 1000, Routers: 16, Links: 48, Events: Events{OnCycles: 16000}}
	if e2.RouterStatic > 0.2*m.Energy(fullOn).RouterStatic {
		t.Errorf("residual static %v too large vs full-on %v", e2.RouterStatic, m.Energy(fullOn).RouterStatic)
	}
}

// leaves returns every count of an Events record, the Wakes entries one
// by one, as settable values.
func leaves(e *Events) []reflect.Value {
	var out []reflect.Value
	v := reflect.ValueOf(e).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Array {
			out = append(out, f)
			continue
		}
		for j := 0; j < f.Len(); j++ {
			out = append(out, f.Index(j))
		}
	}
	return out
}

// TestEventsSumAndWindow checks that Add and Sub cover every count of
// the record: a count either one skipped would read wrong below.
func TestEventsSumAndWindow(t *testing.T) {
	var a, b Events
	la, lb := leaves(&a), leaves(&b)
	for i := range la {
		la[i].SetUint(uint64(i + 1))
		lb[i].SetUint(uint64(10 * (i + 1)))
	}
	sum := a
	sum.Add(&b)
	for i, f := range leaves(&sum) {
		if f.Uint() != uint64(11*(i+1)) {
			t.Errorf("Add: count %d reads %d, want %d", i, f.Uint(), 11*(i+1))
		}
	}
	if got := sum.Sub(b); got != a {
		t.Errorf("(a+b)-b = %+v, want %+v", got, a)
	}
	if got := sum.Sub(a); got != b {
		t.Errorf("(a+b)-a = %+v, want %+v", got, b)
	}
	var wakes uint64
	for _, w := range a.Wakes {
		wakes += w
	}
	if a.Wakeups() != wakes || wakes == 0 {
		t.Errorf("Wakeups = %d, want %d", a.Wakeups(), wakes)
	}
	e := Events{OnCycles: 9000, OffCycles: 6000, WakingCycles: 1000}
	if e.OffFraction() != 6000.0/16000.0 || (Events{}).OffFraction() != 0 {
		t.Errorf("off fraction = %v", e.OffFraction())
	}
}

func TestWakeupOverheadCounted(t *testing.T) {
	m := model(t, 45, 1.1)
	c := Counts{Cycles: 100, Routers: 1, Links: 0, Events: Events{Wakes: [5]uint64{0, 3, 0, 4}}}
	b := m.Energy(c)
	want := 7 * m.WakeupEnergy()
	if math.Abs(b.PGOverhead-want)/want > 1e-12 {
		t.Errorf("overhead = %v, want %v", b.PGOverhead, want)
	}
}

func TestAvgPowerW(t *testing.T) {
	m := model(t, 45, 1.1)
	c := Counts{Cycles: 1000, Routers: 16, Links: 48, Events: Events{OnCycles: 16000}}
	b := m.Energy(c)
	p := m.AvgPowerW(c, b)
	if p <= 0 {
		t.Error("non-positive power")
	}
	if m.AvgPowerW(Counts{}, b) != 0 {
		t.Error("zero-cycle power should be 0")
	}
	// 16 routers always on: power must be at least 16x router static.
	if p < 16*m.RouterStaticW() {
		t.Errorf("power %v below router static floor %v", p, 16*m.RouterStaticW())
	}
}

func TestBypassHopCheaperThanRouterHop(t *testing.T) {
	m := model(t, 45, 1.1)
	if m.EBypassHop() >= m.ERouterHop() {
		t.Error("bypass hop should cost less than a full router hop")
	}
	split := m.EBufferWrite() + m.EBufferRead() + m.EXbar() + m.EVAArb() + m.ESAArb() + m.EClockDyn()
	if math.Abs(split-m.ERouterHop())/m.ERouterHop() > 1e-12 {
		t.Errorf("per-event split %v does not sum to bundle %v", split, m.ERouterHop())
	}
}

// ladder is the four block sets the paper's designs stack up, in order.
var ladder = []Blocks{
	{},
	{PGSwitch: true},
	{PGSwitch: true, EarlyWU: true},
	{PGSwitch: true, EarlyWU: true, Bypass: true},
}

func TestAreaOverheadMatchesSection68(t *testing.T) {
	m := model(t, 45, 1.1)
	got := m.RouterArea(ladder[3]).Total()/m.RouterArea(ladder[2]).Total() - 1
	if math.Abs(got-0.031) > 0.003 {
		t.Errorf("bypass area overhead = %.4f, want ~0.031", got)
	}
	prev := 0.0
	for _, b := range ladder {
		a := m.RouterArea(b).Total()
		if a <= prev {
			t.Errorf("area not increasing at %+v: %v after %v", b, a, prev)
		}
		prev = a
	}
}

// TestAreaAndEnergyPinned: the numbers the Design-enum model produced,
// recorded before the enum was replaced by Blocks (search front digests
// embed AreaMM2, every Result embeds the energy breakdown). The gated
// core is the same for every block set; only the three adders differ.
func TestAreaAndEnergyPinned(t *testing.T) {
	m := model(t, 45, 1.1)
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-15*math.Abs(want) {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}
	adders := [][3]float64{{0, 0, 0}, {0.0228, 0, 0}, {0.0228, 0.00228, 0}, {0.0228, 0.00228, 0.012557480000000001}}
	for i, b := range ladder {
		ref, scaled := m.RouterArea(b), m.RouterAreaFor(b, 6, 3)
		if got := m.RouterAreaFor(b, 0, 0); got != ref {
			t.Errorf("%+v: RouterAreaFor(0, 0) = %+v, want the reference %+v", b, got, ref)
		}
		same("Buffers", ref.Buffers, 0.15200000000000002)
		same("Crossbar", ref.Crossbar, 0.11399999999999999)
		same("Allocators", ref.Allocators, 0.038000000000000006)
		same("Other", ref.Other, 0.07600000000000001)
		same("PGSwitch", ref.PGSwitch, adders[i][0])
		same("EarlyWU", ref.EarlyWU, adders[i][1])
		same("Bypass", ref.Bypass, adders[i][2])
		same("scaled Buffers", scaled.Buffers, 0.13680000000000003)
		same("scaled Allocators", scaled.Allocators, 0.05700000000000001)
		same("scaled PGSwitch", scaled.PGSwitch, adders[i][0]*1.01)
		same("scaled EarlyWU", scaled.EarlyWU, adders[i][1])
		same("scaled Bypass", scaled.Bypass, adders[i][2])
	}

	c := Counts{Cycles: 1000, Routers: 16, Links: 48, LinkLengthFactor: 2, Events: Events{
		OnCycles: 8000, WakingCycles: 1000, OffCycles: 7000, Wakes: [5]uint64{0, 40, 0, 2},
		BufWrites: 100, VAGrants: 70, SAGrants: 60, LinkTraversals: 40,
		BypassHops: 30, BypassInjections: 20, BypassEjections: 10, LocalFlits: 5}}
	// Early wakeup has no always-on leakage of its own.
	static := []float64{1.2133836000000003e-06, 1.2416958840000004e-06, 1.2416958840000004e-06, 1.2848384120000004e-06}
	for i, b := range ladder {
		c.Blocks = b
		e := m.Energy(c)
		same("RouterStatic", e.RouterStatic, static[i])
		same("RouterDynamic", e.RouterDynamic, 2.5941139583333328e-08)
		same("LinkStatic", e.LinkStatic, 1.0785632000000003e-06)
		same("LinkDynamic", e.LinkDynamic, 6.150833333333333e-09)
		same("PGOverhead", e.PGOverhead, 5.6624568000000014e-08)
	}
}

func TestAreaScalesWithNode(t *testing.T) {
	a65 := model(t, 65, 1.1).RouterArea(Blocks{}).Total()
	a45 := model(t, 45, 1.1).RouterArea(Blocks{}).Total()
	a32 := model(t, 32, 1.1).RouterArea(Blocks{}).Total()
	if !(a65 > a45 && a45 > a32) {
		t.Errorf("area should shrink with node: %v, %v, %v", a65, a45, a32)
	}
	want := a45 * (65.0 / 45.0) * (65.0 / 45.0)
	if math.Abs(a65-want)/want > 1e-12 {
		t.Errorf("quadratic scaling broken: %v vs %v", a65, want)
	}
}
