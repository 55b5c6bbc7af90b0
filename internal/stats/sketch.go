package stats

// Exact quantile summary. A Sketch is the multiset of the samples it
// was fed: one sorted buffer holding every sample, at any size. Every
// query runs the same R-7 / order-statistic code as Quantile and
// MedianCI, so its answers are bit-identical to those functions over
// the raw samples.
//
// Add appends in amortized O(1) and only notes when a sample arrived
// out of order; the first query after that sorts the buffer in place. A
// query may therefore write the sketch, which the type's contract
// (single-goroutine state, like the rest of this package) already
// covers.

import (
	"encoding/json"
	"math"
	"slices"
)

// Sketch is a deterministic quantile summary that keeps every sample.
// The zero value is an empty sketch. Sketch is not safe for concurrent
// use, queries included: like the rest of this package it is
// single-goroutine state that the scheduler owns per pair.
type Sketch struct {
	// buf holds every sample; it is sorted unless unsorted is set.
	buf      []float64
	unsorted bool
}

// NewSketch returns an empty sketch.
func NewSketch() *Sketch { return &Sketch{} }

// Count returns the number of samples added so far.
func (s *Sketch) Count() int { return len(s.buf) }

// Add folds one sample into the sketch. NaN samples are ignored, ±Inf
// is clamped to ±MaxFloat64 and −0 is stored as +0, so every stored
// sample is finite and the sorted buffer, and its JSON, is a function
// of the multiset alone.
func (s *Sketch) Add(v float64) {
	switch {
	case math.IsNaN(v):
		return
	case math.IsInf(v, 1):
		v = math.MaxFloat64
	case math.IsInf(v, -1):
		v = -math.MaxFloat64
	case v == 0:
		v = 0
	}
	if n := len(s.buf); n > 0 && v < s.buf[n-1] {
		s.unsorted = true
	}
	s.buf = append(s.buf, v)
}

// sorted returns the buffer in ascending order, sorting it first if a
// sample arrived out of order since the last query.
func (s *Sketch) sorted() []float64 {
	if s.unsorted {
		slices.Sort(s.buf)
		s.unsorted = false
	}
	return s.buf
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1), bit-identical to
// Quantile on the raw samples (R-7 rule). Empty sketches return 0,
// mirroring Quantile(nil).
func (s *Sketch) Quantile(q float64) float64 {
	if len(s.buf) == 0 {
		return 0
	}
	return quantileSorted(s.sorted(), q)
}

// Median returns the sketch median (Quantile 0.5).
func (s *Sketch) Median() float64 { return s.Quantile(0.5) }

// MedianCI returns the distribution-free ~95% confidence interval for
// the median, bit-identical to MedianCI on the raw samples.
func (s *Sketch) MedianCI() (lo, hi float64) {
	if len(s.buf) == 0 {
		return 0, 0
	}
	return medianCISorted(s.sorted())
}

// CIWithin reports whether the sketch's median CI spans at most
// ±tolerance around the median (the §3.4 stopping rule).
func (s *Sketch) CIWithin(tolerance float64) bool {
	if len(s.buf) == 0 {
		return false
	}
	lo, hi := s.MedianCI()
	m := s.Median()
	return m-lo <= tolerance && hi-m <= tolerance
}

// IQR returns the inter-quartile range (p75 − p25), Sketch's
// counterpart of IQR.
func (s *Sketch) IQR() float64 {
	return s.Quantile(0.75) - s.Quantile(0.25)
}

// Each visits every sample in ascending value order (never in the order
// they were added).
func (s *Sketch) Each(f func(v float64)) {
	for _, v := range s.sorted() {
		f(v)
	}
}

// MarshalJSON writes the samples in ascending order as a JSON number
// array ([] when the sketch is empty), so two sketches of the same
// multiset marshal to the same bytes.
func (s *Sketch) MarshalJSON() ([]byte, error) {
	if len(s.buf) == 0 {
		return []byte("[]"), nil
	}
	return json.Marshal(s.sorted())
}
