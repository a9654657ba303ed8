package stats

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nord/internal/power"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.Mean() != 0 {
		t.Error("empty sample mean should be 0")
	}
	for _, v := range []float64{3, 1, 2} {
		s.Add(v)
	}
	if s.N != 3 || s.Sum != 6 || s.Min != 1 || s.Max != 3 {
		t.Errorf("sample = %+v", s)
	}
	if s.Mean() != 2 {
		t.Errorf("mean = %v, want 2", s.Mean())
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestSampleMerge(t *testing.T) {
	var a, b Sample
	a.Add(1)
	a.Add(5)
	b.Add(3)
	b.Add(-2)
	a.Merge(b)
	if a.N != 4 || a.Min != -2 || a.Max != 5 || a.Sum != 7 {
		t.Errorf("merged = %+v", a)
	}
	var empty Sample
	a.Merge(empty)
	if a.N != 4 {
		t.Error("merging empty changed sample")
	}
	var c Sample
	c.Merge(a)
	if c != a {
		t.Error("merging into empty should copy")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(10)
	for _, v := range []uint64{0, 1, 1, 5, 20} {
		h.Add(v)
	}
	if h.Count() != 5 || h.Sum() != 27 || h.Max() != 20 {
		t.Errorf("count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
	if h.Bucket(1) != 2 || h.Bucket(0) != 1 || h.Bucket(20) != 0 {
		t.Error("bucket counts wrong")
	}
	if h.Overflow() != 1 {
		t.Errorf("overflow = %d, want 1", h.Overflow())
	}
	if h.Mean() != 27.0/5.0 {
		t.Errorf("mean = %v", h.Mean())
	}
	if h.CountLE(1) != 3 {
		t.Errorf("CountLE(1) = %d, want 3", h.CountLE(1))
	}
	if h.CountLE(5) != 4 {
		t.Errorf("CountLE(5) = %d, want 4", h.CountLE(5))
	}
	if h.CountLE(19) != 4 {
		t.Errorf("CountLE(19) = %d, want 4 (overflow value is 20)", h.CountLE(19))
	}
	if h.CountLE(20) != 5 {
		t.Errorf("CountLE(20) = %d, want 5", h.CountLE(20))
	}
	if h.FracLE(1) != 0.6 {
		t.Errorf("FracLE(1) = %v, want 0.6", h.FracLE(1))
	}
}

func TestHistogramEmptyAndTiny(t *testing.T) {
	h := NewHistogram(0) // normalised to 1 bucket
	if h.FracLE(5) != 0 || h.Mean() != 0 || h.Percentile(0.5) != 0 {
		t.Error("empty histogram should report zeros")
	}
	h.Add(0)
	if h.Count() != 1 || h.Bucket(0) != 1 {
		t.Error("tiny histogram broken")
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(100)
	for v := uint64(1); v <= 100; v++ {
		h.Add(v % 100)
	}
	if p := h.Percentile(0.5); p != 49 && p != 50 {
		t.Errorf("median = %d, want ~50", p)
	}
	if p := h.Percentile(1.0); p != 99 {
		t.Errorf("p100 = %d, want 99", p)
	}
	if p := h.Percentile(0); p != 0 {
		t.Errorf("p0 = %d, want 0", p)
	}
}

// Property: histogram count/sum match direct accumulation, and CountLE is
// monotone in x.
func TestHistogramProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		h := NewHistogram(64)
		var sum, count uint64
		for _, v := range vals {
			h.Add(uint64(v % 128))
			sum += uint64(v % 128)
			count++
		}
		if h.Count() != count || h.Sum() != sum {
			return false
		}
		prev := uint64(0)
		for x := uint64(0); x < 130; x += 7 {
			c := h.CountLE(x)
			if c < prev || c > count {
				return false
			}
			prev = c
		}
		return h.CountLE(200) == count
	}
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(5)), MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestWindow(t *testing.T) {
	w := NewWindow(3)
	w.Push(1)
	w.Push(2)
	w.Push(3)
	if w.Sum() != 6 {
		t.Errorf("sum = %d, want 6", w.Sum())
	}
	w.Push(10) // evicts 1
	if w.Sum() != 15 {
		t.Errorf("sum = %d, want 15", w.Sum())
	}
	w.Reset()
	if w.Sum() != 0 {
		t.Error("reset did not clear")
	}
	// Window of zero size normalised to 1.
	w1 := NewWindow(0)
	w1.Push(5)
	if w1.Sum() != 5 {
		t.Error("size-1 window broken")
	}
	w1.Push(7)
	if w1.Sum() != 7 {
		t.Error("size-1 window should only hold latest")
	}
}

// Property: window sum always equals the sum of the last N pushes.
func TestWindowProperty(t *testing.T) {
	f := func(n8 uint8, vals []uint8) bool {
		n := int(n8%10) + 1
		w := NewWindow(n)
		hist := []uint32{}
		for _, v := range vals {
			w.Push(uint32(v))
			hist = append(hist, uint32(v))
			var want uint64
			start := len(hist) - n
			if start < 0 {
				start = 0
			}
			for _, x := range hist[start:] {
				want += uint64(x)
			}
			if w.Sum() != want {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(6)), MaxCount: 100}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestNoCCollector(t *testing.T) {
	n := NewNoC(512)
	n.Cycles = 1000
	n.FlitsDelivered = 3200
	n.LatencyHist.Add(10)
	n.LatencyHist.Add(20)
	n.IdleCycles = 7000
	n.BusyCycles = 3000

	if n.AvgPacketLatency() != 15 {
		t.Errorf("latency = %v", n.AvgPacketLatency())
	}
	if n.Throughput(16) != 0.2 {
		t.Errorf("throughput = %v", n.Throughput(16))
	}
	if n.Throughput(0) != 0 {
		t.Error("zero-node throughput should be 0")
	}
	if n.IdleFraction() != 0.7 {
		t.Errorf("idle fraction = %v", n.IdleFraction())
	}
	// The priced events are the power model's record, read through the
	// collector.
	n.Events = power.Events{OnCycles: 9000, OffCycles: 6000, WakingCycles: 1000}
	if n.OffFraction() != 6000.0/16000.0 {
		t.Errorf("off fraction = %v", n.OffFraction())
	}
}

func TestNoCCollectorEmpty(t *testing.T) {
	n := NewNoC(10)
	if n.IdleFraction() != 0 || n.OffFraction() != 0 || n.Throughput(16) != 0 {
		t.Error("empty collector should report zeros")
	}
}
