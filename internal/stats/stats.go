// Package stats provides the measurement machinery of the simulator:
// scalar samples, integer histograms (idle-period distributions vs the
// breakeven time, Section 3.2), sliding windows (the NoRD VC-request
// wakeup metric, Section 4.3), and the aggregated NoC collector the
// experiments consume.
package stats

import (
	"fmt"
	"math"
)

// Sample accumulates a scalar statistic.
type Sample struct {
	N        uint64
	Sum      float64
	Min, Max float64
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	if s.N == 0 || v < s.Min {
		s.Min = v
	}
	if s.N == 0 || v > s.Max {
		s.Max = v
	}
	s.N++
	s.Sum += v
}

// Mean returns the average of the recorded observations (0 when empty).
func (s *Sample) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return s.Sum / float64(s.N)
}

// Merge folds another sample into this one.
func (s *Sample) Merge(o Sample) {
	if o.N == 0 {
		return
	}
	if s.N == 0 {
		*s = o
		return
	}
	if o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
	s.N += o.N
	s.Sum += o.Sum
}

// String implements fmt.Stringer.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.2f min=%.0f max=%.0f", s.N, s.Mean(), s.Min, s.Max)
}

// Histogram counts non-negative integer observations. Values at or above
// the bucket count land in an overflow bucket but still contribute
// exactly to Count and Sum.
type Histogram struct {
	buckets  []uint64
	overflow uint64
	count    uint64
	sum      uint64
	max      uint64
}

// NewHistogram returns a histogram with the given number of unit-width
// buckets [0,1), [1,2), ...
func NewHistogram(buckets int) *Histogram {
	if buckets < 1 {
		buckets = 1
	}
	return &Histogram{buckets: make([]uint64, buckets)}
}

// Add records one observation.
func (h *Histogram) Add(v uint64) {
	if v < uint64(len(h.buckets)) {
		h.buckets[v]++
	} else {
		h.overflow++
	}
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the total of all observations.
func (h *Histogram) Sum() uint64 { return h.sum }

// Max returns the largest observation.
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the average observation.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// CountLE returns how many observations were <= x. Observations in the
// overflow bucket are assumed > x whenever x is below the bucket range,
// which is exact for the idle-vs-BET use (BET << bucket count).
func (h *Histogram) CountLE(x uint64) uint64 {
	var n uint64
	limit := x
	if limit >= uint64(len(h.buckets)) {
		limit = uint64(len(h.buckets)) - 1
	}
	for v := uint64(0); v <= limit; v++ {
		n += h.buckets[v]
	}
	if x >= uint64(len(h.buckets)) {
		// All overflow observations might exceed x; they are counted
		// only if x covers the recorded maximum.
		if x >= h.max {
			n += h.overflow
		}
	}
	return n
}

// FracLE returns the fraction of observations <= x (0 when empty).
func (h *Histogram) FracLE(x uint64) float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.CountLE(x)) / float64(h.count)
}

// Bucket returns the count of observations with value v (0 if v is in the
// overflow range).
func (h *Histogram) Bucket(v uint64) uint64 {
	if v < uint64(len(h.buckets)) {
		return h.buckets[v]
	}
	return 0
}

// Overflow returns the count of observations beyond the bucket range.
func (h *Histogram) Overflow() uint64 { return h.overflow }

// Percentile returns the smallest value v such that at least p (0..1) of
// the observations are <= v. Overflow observations report the maximum.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(p * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for v, n := range h.buckets {
		cum += n
		if cum >= target {
			return uint64(v)
		}
	}
	return h.max
}

// Window is a fixed-length sliding window over per-cycle integer counts,
// used for the NoRD wakeup metric: "the number of VC requests at the
// local NI over a period of time (10 cycles)".
type Window struct {
	slots []uint32
	head  int
	sum   uint64
}

// NewWindow returns a window of the given length in cycles.
func NewWindow(n int) *Window {
	if n < 1 {
		n = 1
	}
	return &Window{slots: make([]uint32, n)}
}

// Push appends the current cycle's count, evicting the oldest.
func (w *Window) Push(v uint32) {
	if v == 0 && w.sum == 0 {
		// The sum equals the slot total, so every slot is already zero:
		// pushing another zero leaves the window unchanged and the head
		// position is unobservable.
		return
	}
	w.sum -= uint64(w.slots[w.head])
	w.slots[w.head] = v
	w.sum += uint64(v)
	w.head++
	if w.head == len(w.slots) {
		w.head = 0
	}
}

// Sum returns the windowed total.
func (w *Window) Sum() uint64 { return w.sum }

// Reset clears the window.
func (w *Window) Reset() {
	for i := range w.slots {
		w.slots[i] = 0
	}
	w.sum = 0
	w.head = 0
}
