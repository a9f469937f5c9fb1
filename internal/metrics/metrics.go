// Package metrics provides the small statistics toolkit used throughout the
// simulator: streaming summaries, integer histograms, the one latency
// distribution (LogHist), weighted CDFs and fixed-interval time series.
//
// Everything here is deterministic and allocation-conscious; the experiment
// harness relies on these types to regenerate the paper's figures (CDF plots
// in Fig. 2, bar charts in Figs. 8-12, and the time series in Fig. 13).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates count / sum / min / max / mean / variance of a stream
// of float64 observations using Welford's online algorithm.
type Summary struct {
	n        int64
	mean, m2 float64
	sum      float64
	min, max float64
}

// Observe adds one observation.
func (s *Summary) Observe(v float64) {
	if s.n == 0 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.n++
	s.sum += v
	delta := v - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (v - s.mean)
}

// Count returns the number of observations.
func (s *Summary) Count() int64 { return s.n }

// Sum returns the sum of observations.
func (s *Summary) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.mean
}

// Min returns the smallest observation, or 0 with no observations.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 with no observations.
func (s *Summary) Max() float64 { return s.max }

// Variance returns the population variance, or 0 with fewer than two
// observations.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// StdDev returns the population standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Merge folds other into s, as if every observation of other had been
// observed by s as well.
func (s *Summary) Merge(other *Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *other
		return
	}
	n := s.n + other.n
	delta := other.mean - s.mean
	mean := s.mean + delta*float64(other.n)/float64(n)
	m2 := s.m2 + other.m2 + delta*delta*float64(s.n)*float64(other.n)/float64(n)
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	s.n, s.mean, s.m2 = n, mean, m2
	s.sum += other.sum
}

// String formats the summary compactly, mostly for logs and examples.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f min=%.3f max=%.3f sd=%.3f",
		s.n, s.Mean(), s.Min(), s.Max(), s.StdDev())
}

// Hist is an exact histogram over small non-negative integer keys (request
// sizes in pages, eviction batch sizes, ...). Keys beyond the preallocated
// range spill into a map.
type Hist struct {
	dense  []int64
	sparse map[int]int64
	total  int64
}

// NewHist returns a histogram with a dense fast path for keys < denseLimit.
func NewHist(denseLimit int) *Hist {
	if denseLimit < 1 {
		denseLimit = 1
	}
	return &Hist{dense: make([]int64, denseLimit)}
}

// Add increments the count of key by w. Negative keys are clamped to 0.
func (h *Hist) Add(key int, w int64) {
	if key < 0 {
		key = 0
	}
	if key < len(h.dense) {
		h.dense[key] += w
	} else {
		if h.sparse == nil {
			h.sparse = make(map[int]int64)
		}
		h.sparse[key] += w
	}
	h.total += w
}

// Observe is Add(key, 1).
func (h *Hist) Observe(key int) { h.Add(key, 1) }

// Count returns the weight recorded for key.
func (h *Hist) Count(key int) int64 {
	if key >= 0 && key < len(h.dense) {
		return h.dense[key]
	}
	return h.sparse[key]
}

// Total returns the total recorded weight.
func (h *Hist) Total() int64 { return h.total }

// Keys returns all keys with non-zero weight, ascending.
func (h *Hist) Keys() []int {
	var keys []int
	for k, v := range h.dense {
		if v != 0 {
			keys = append(keys, k)
		}
	}
	for k, v := range h.sparse {
		if v != 0 {
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	return keys
}

// Mean returns the weighted mean key.
func (h *Hist) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for k, v := range h.dense {
		sum += float64(k) * float64(v)
	}
	for k, v := range h.sparse {
		sum += float64(k) * float64(v)
	}
	return sum / float64(h.total)
}

// CDF returns cumulative fractions at each key, ascending: the i-th point is
// (key, fraction of weight at keys ≤ key). Returns nil for an empty
// histogram.
func (h *Hist) CDF() []CDFPoint {
	keys := h.Keys()
	if len(keys) == 0 {
		return nil
	}
	out := make([]CDFPoint, 0, len(keys))
	var cum int64
	for _, k := range keys {
		cum += h.Count(k)
		out = append(out, CDFPoint{Key: k, Fraction: float64(cum) / float64(h.total)})
	}
	return out
}

// FractionLE returns the fraction of weight at keys ≤ k.
func (h *Hist) FractionLE(k int) float64 {
	if h.total == 0 {
		return 0
	}
	var cum int64
	for i, v := range h.dense {
		if i > k {
			break
		}
		cum += v
	}
	for key, v := range h.sparse {
		if key <= k {
			cum += v
		}
	}
	return float64(cum) / float64(h.total)
}

// CDFPoint is one point of a cumulative distribution: the fraction of total
// weight at keys less than or equal to Key.
type CDFPoint struct {
	Key      int
	Fraction float64
}

// Series is a fixed-interval time series of float64 samples (Fig. 13 logs
// list occupancy once every 10,000 requests).
type Series struct {
	Interval int64 // sample spacing in the caller's unit (e.g. requests)
	Samples  []float64
}

// NewSeries returns a series sampled every interval units.
func NewSeries(interval int64) *Series {
	if interval < 1 {
		interval = 1
	}
	return &Series{Interval: interval}
}

// Tick records v if pos crosses the next sampling boundary; pos is a
// monotonically non-decreasing position (request index, simulated time...).
func (s *Series) Tick(pos int64, v float64) {
	for int64(len(s.Samples)+1)*s.Interval <= pos {
		s.Samples = append(s.Samples, v)
	}
}

// Len returns the number of samples taken so far.
func (s *Series) Len() int { return len(s.Samples) }

// Ratio returns a/b, or 0 when b == 0. It exists because nearly every
// reported metric in the paper is a normalized ratio.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Percent formats a ratio as a percentage string with one decimal.
func Percent(r float64) string { return fmt.Sprintf("%.1f%%", r*100) }

// Merge folds another histogram into h (replication aggregation).
func (h *Hist) Merge(other *Hist) {
	for k, v := range other.dense {
		if v != 0 {
			h.Add(k, v)
		}
	}
	for k, v := range other.sparse {
		if v != 0 {
			h.Add(k, v)
		}
	}
}
