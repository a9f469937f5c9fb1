package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// LogHist is the program's one latency distribution: a log-linear
// histogram of non-negative int64 values (simulated or wall-clock
// nanoseconds, page counts, scan work). The replay's response tail, the
// load generator's percentiles, the ssdsim_*/ssdserve_* histograms and
// the blame matrix all read it, so they report the same quantile of the
// same values by the same rule.
//
// Layout. Buckets are upper-inclusive, (lo, hi]. Every value up to 128
// has a bucket of its own. Above 128, each power-of-two range
// (2^(k-1), 2^k] splits into 64 equal buckets: 3,713 counters in all,
// 29 KiB. Each power-of-two range is a union of whole buckets, so the
// log2 view (Pow2Counts) is exact.
//
// Rule. Quantile(q) returns the upper edge of the bucket holding the
// ⌈q·n⌉-th smallest observation (its nearest rank). For the exact
// nearest-rank value x, x ≤ Quantile(q) ≤ x·(1 + 1/64), and Quantile(q)
// equals x whenever x ≤ 128. Negative values clamp to 0, in the bucket
// and in the sum alike.
//
// Like the obs instruments, LogHist is nil-safe (updates no-op, reads
// return zero), atomic (one goroutine may observe while others read or
// merge) and allocation-free: Observe is one index computation and two
// atomic adds. The count is not stored; reads sum the buckets. The zero
// value is an empty histogram.
type LogHist struct {
	sum    atomic.Int64
	counts [logHistBuckets]atomic.Int64
}

const (
	// subBits is log2 of the buckets per power-of-two range.
	subBits = 6
	// linearMax is the largest value with a bucket of its own; the first
	// split range, (128, 256], has buckets of width 2.
	linearMax = 2 << subBits
	// logHistBuckets counts the linear buckets 0..128, then 64 for each
	// range (2^(k-1), 2^k] with k = 8..63.
	logHistBuckets = linearMax + 1 + (63-subBits-1)<<subBits

	// Pow2Buckets is the number of power-of-two folds (Pow2Bucket).
	Pow2Buckets = 64
)

// bucketOf returns the bucket holding v ≥ 0.
func bucketOf(v int64) int {
	if v <= linearMax {
		return int(v)
	}
	k := Pow2Bucket(v)                         // v lies in (2^(k-1), 2^k], k ≥ 8
	m := int(uint64(v-1) >> (k - subBits - 1)) // 64..127: the bucket within the range
	return linearMax + 1 + (k-subBits-2)<<subBits + m - 1<<subBits
}

// upperEdge returns the largest value bucket i holds. The last bucket's
// edge, 2^63, clamps to math.MaxInt64.
func upperEdge(i int) int64 {
	if i <= linearMax {
		return int64(i)
	}
	j := i - linearMax - 1
	k := j>>subBits + subBits + 2
	m := uint64(j&(1<<subBits-1)) + 1<<subBits
	if e := (m + 1) << (k - subBits - 1); e <= math.MaxInt64 {
		return int64(e)
	}
	return math.MaxInt64
}

// Pow2Bucket returns the power-of-two fold holding v: fold 0 holds
// v ≤ 1 and fold k > 0 holds (2^(k-1), 2^k], so math.MaxInt64 lies in
// fold 63. It is the log2 part of the histogram's own bucket function.
func Pow2Bucket(v int64) int {
	if v <= 1 {
		return 0
	}
	return bits.Len64(uint64(v - 1))
}

// Pow2Upper returns fold k's upper edge 2^k; the last fold's edge, 2^63,
// clamps to math.MaxInt64.
func Pow2Upper(k int) int64 {
	if k >= Pow2Buckets-1 {
		return math.MaxInt64
	}
	return 1 << uint(k)
}

// Observe records one value.
func (h *LogHist) Observe(v int64) {
	if h == nil {
		return
	}
	v = max(v, 0)
	h.sum.Add(v)
	h.counts[bucketOf(v)].Add(1)
}

// Count returns the number of observations.
func (h *LogHist) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of the observed values (after clamping).
func (h *LogHist) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns the upper edge of the bucket holding the ⌈q·n⌉-th
// smallest of the n observations (the first, for q = 0), or 0 with no
// observations. q must lie in [0, 1].
func (h *LogHist) Quantile(q float64) int64 {
	if !(q >= 0 && q <= 1) {
		panic("metrics: quantile q must be in [0,1]")
	}
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := min(max(int64(math.Ceil(q*float64(n))), 1), n)
	var cum int64
	for i := range h.counts {
		if cum += h.counts[i].Load(); cum >= rank {
			return upperEdge(i)
		}
	}
	return math.MaxInt64
}

// Merge adds every observation of o to h, exactly: afterwards h holds
// what one histogram observing both streams would hold.
func (h *LogHist) Merge(o *LogHist) {
	if h == nil || o == nil {
		return
	}
	h.sum.Add(o.sum.Load())
	for i := range o.counts {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
}

// Pow2Counts folds the buckets into the power-of-two ranges of
// Pow2Bucket. Each bucket is read once, so the folds sum to one count
// even while Observe runs.
func (h *LogHist) Pow2Counts() (folds [Pow2Buckets]int64) {
	if h == nil {
		return folds
	}
	for i := range h.counts {
		folds[Pow2Bucket(upperEdge(i))] += h.counts[i].Load()
	}
	return folds
}

// Percentile reads one fixed quantile of a histogram. It keeps no state
// of its own, so every read reflects the histogram as it stands.
type Percentile struct {
	Hist *LogHist
	Q    float64
}

// Value returns Hist.Quantile(Q) as a float64.
func (p Percentile) Value() float64 { return float64(p.Hist.Quantile(p.Q)) }
