package metrics

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// exactQuantile is the reference: the ⌈q·n⌉-th smallest of xs (the
// smallest for q = 0), with negative values clamped to 0 as LogHist
// clamps them.
func exactQuantile(xs []int64, q float64) int64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	r := int(math.Ceil(q * float64(len(s))))
	r = min(max(r, 1), len(s))
	return max(s[r-1], 0)
}

// withinBound reports whether got is a valid read of the exact value x:
// x ≤ got ≤ x·(1 + 1/64), and got == x for x ≤ 128.
func withinBound(x, got int64) bool {
	if got < x {
		return false
	}
	if x <= linearMax {
		return got == x
	}
	return got-x <= x/64
}

// observeAll returns a histogram holding xs.
func observeAll(xs []int64) *LogHist {
	h := &LogHist{}
	for _, v := range xs {
		h.Observe(v)
	}
	return h
}

// checkQuantiles holds h's quantiles at qs to the bound against a sort
// of xs.
func checkQuantiles(t testing.TB, name string, h *LogHist, xs []int64, qs ...float64) {
	t.Helper()
	for _, q := range qs {
		want, got := exactQuantile(xs, q), h.Quantile(q)
		if !withinBound(want, got) {
			t.Fatalf("%s: Quantile(%v) = %d, exact %d (n=%d)", name, q, got, want, len(xs))
		}
	}
}

var boundQs = []float64{0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1}

func TestQuantilePanicsOnBadP(t *testing.T) {
	h := observeAll([]int64{1, 2, 3})
	for _, q := range []float64{-0.5, 1.5, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("q=%v accepted", q)
				}
			}()
			h.Quantile(q)
		}()
	}
	if h.Quantile(0) != 1 || h.Quantile(1) != 3 {
		t.Fatal("the end points 0 and 1 must be valid")
	}
}

// Empty reads are zero, and tiny streams (n = 1..5) keep the bound at
// every rank, whatever the magnitudes.
func TestQuantileEmptyAndTiny(t *testing.T) {
	h := &LogHist{}
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("empty histogram not zero")
	}
	h.Observe(7)
	if h.Quantile(0.5) != 7 {
		t.Fatalf("single value = %d", h.Quantile(0.5))
	}
	h.Observe(3)
	h.Observe(5)
	if got := h.Quantile(0.5); got != 5 { // ⌈1.5⌉ = 2nd of {3,5,7}
		t.Fatalf("3-sample median = %d, want 5", got)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 2000; trial++ {
		xs := make([]int64, 1+trial%5)
		for i := range xs {
			switch rng.Intn(4) {
			case 0:
				xs[i] = rng.Int63n(200)
			case 1:
				xs[i] = rng.Int63()
			case 2:
				xs[i] = int64(rng.ExpFloat64() * 1e6)
			default:
				xs[i] = []int64{0, math.MaxInt64}[rng.Intn(2)]
			}
		}
		checkQuantiles(t, "tiny", observeAll(xs), xs, boundQs...)
	}
}

func TestQuantileUniformStream(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, hi := range []int64{100, 1000, 1_000_000, math.MaxInt64} {
		xs := make([]int64, 20000)
		for i := range xs {
			xs[i] = rng.Int63n(hi)
		}
		checkQuantiles(t, "uniform", observeAll(xs), xs, boundQs...)
	}
}

// Heavy-tailed input, the shape of latency distributions: exponential,
// and a Pareto tail spanning many powers of two.
func TestQuantileExponentialStream(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	exp := make([]int64, 50000)
	pareto := make([]int64, 50000)
	for i := range exp {
		exp[i] = int64(rng.ExpFloat64() * 100_000)
		pareto[i] = int64(1000 / math.Pow(1-rng.Float64(), 1.5))
	}
	for name, xs := range map[string][]int64{"exponential": exp, "pareto": pareto} {
		h := observeAll(xs)
		checkQuantiles(t, name, h, xs, boundQs...)
		if h.Quantile(0.5) >= h.Quantile(0.99) {
			t.Errorf("%s: P50 >= P99", name)
		}
	}
}

func TestQuantileSortedAndReversedStreams(t *testing.T) {
	for name, gen := range map[string]func(i int) int64{
		"ascending":      func(i int) int64 { return int64(i) * 37 },
		"descending":     func(i int) int64 { return int64(10000-i) * 37 },
		"constant":       func(i int) int64 { return 42 },
		"constant-large": func(i int) int64 { return 1_000_003 },
	} {
		xs := make([]int64, 10000)
		for i := range xs {
			xs[i] = gen(i)
		}
		checkQuantiles(t, name, observeAll(xs), xs, boundQs...)
	}
}

func TestQuantileMonotoneAcrossP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := &LogHist{}
	for i := 0; i < 30000; i++ {
		h.Observe(int64(rng.NormFloat64()*5000 + 50000))
	}
	prev := int64(-1)
	for q := 0.0; q <= 1; q += 0.001 {
		got := h.Quantile(q)
		if got < prev {
			t.Fatalf("Quantile(%v) = %d < %d at a lower q", q, got, prev)
		}
		prev = got
	}
}

// The extremes: 0 has a bucket of its own, math.MaxInt64 lands in the
// last one and reads back exactly, and negative values count as 0.
func TestLogHistExtremes(t *testing.T) {
	h := &LogHist{}
	h.Observe(0)
	h.Observe(math.MaxInt64)
	h.Observe(-5)
	if h.Count() != 3 || h.Sum() != math.MaxInt64 {
		t.Fatalf("Count %d Sum %d, want 3 and MaxInt64", h.Count(), h.Sum())
	}
	if h.Quantile(0) != 0 || h.Quantile(0.5) != 0 || h.Quantile(1) != math.MaxInt64 {
		t.Fatalf("quantiles %d %d %d", h.Quantile(0), h.Quantile(0.5), h.Quantile(1))
	}
	if f := h.Pow2Counts(); f[0] != 2 || f[Pow2Buckets-1] != 1 {
		t.Fatalf("folds 0 and 63 hold %d and %d", f[0], f[Pow2Buckets-1])
	}
}

// The layout: every bucket's upper edge maps back to it, the next value
// opens the next bucket, no bucket above 128 is wider than 1/64 of its
// lower edge, and each bucket lies inside one power-of-two fold (so
// Pow2Counts may fold a bucket by its upper edge).
func TestLogHistLayout(t *testing.T) {
	if logHistBuckets != 3713 {
		t.Fatalf("%d buckets, want 3713", logHistBuckets)
	}
	if size := unsafe.Sizeof(LogHist{}); size >= 30<<10 {
		t.Fatalf("LogHist is %d bytes, want under 30 KiB", size)
	}
	if upperEdge(logHistBuckets-1) != math.MaxInt64 || bucketOf(math.MaxInt64) != logHistBuckets-1 {
		t.Fatal("math.MaxInt64 must land in the last bucket")
	}
	for i := 0; i < logHistBuckets; i++ {
		hi := upperEdge(i)
		if bucketOf(hi) != i {
			t.Fatalf("bucketOf(upperEdge(%d) = %d) = %d", i, hi, bucketOf(hi))
		}
		if i == 0 {
			continue
		}
		lo := upperEdge(i - 1)
		if bucketOf(lo+1) != i {
			t.Fatalf("bucket %d does not start at %d", i, lo+1)
		}
		if Pow2Bucket(lo+1) != Pow2Bucket(hi) {
			t.Fatalf("bucket %d = (%d, %d] straddles a power of two", i, lo, hi)
		}
		if i > linearMax && hi-lo > lo/64 {
			t.Fatalf("bucket %d = (%d, %d] is wider than 1/64 of %d", i, lo, hi, lo)
		}
	}
}

// Pow2Bucket places v in the smallest fold whose upper edge 2^k holds it.
func TestPow2Bucket(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0},
		{2, 1},
		{3, 2}, {4, 2},
		{5, 3}, {8, 3},
		{9, 4}, {1024, 10}, {1025, 11},
		{math.MaxInt64, Pow2Buckets - 1},
	}
	for _, tc := range cases {
		if got := Pow2Bucket(tc.v); got != tc.want {
			t.Errorf("Pow2Bucket(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
	if Pow2Upper(0) != 1 || Pow2Upper(10) != 1024 || Pow2Upper(Pow2Buckets-1) != math.MaxInt64 {
		t.Fatal("Pow2Upper edges wrong")
	}
}

func TestLogHistObserveAndStats(t *testing.T) {
	h := observeAll([]int64{1, 2, 3, 100, 1000})
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Sum() != 1106 {
		t.Fatalf("Sum = %d", h.Sum())
	}
	if f := h.Pow2Counts(); f[0] != 1 || f[1] != 1 || f[2] != 1 || f[7] != 1 || f[10] != 1 {
		t.Fatalf("folds misplaced: %v", f[:11])
	}
	// 1000 is a bucket edge: (992, 1000] in the 8-wide buckets of (512, 1024].
	for q, want := range map[float64]int64{0: 1, 0.5: 3, 0.8: 100, 1: 1000} {
		if got := h.Quantile(q); got != want {
			t.Fatalf("Quantile(%v) = %d, want %d", q, got, want)
		}
	}
}

// Merging two histograms equals observing both streams into one:
// buckets, count and sum.
func TestLogHistMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	whole, a, b := &LogHist{}, &LogHist{}, &LogHist{}
	for i := 0; i < 20000; i++ {
		v := int64(rng.ExpFloat64() * 1e7)
		whole.Observe(v)
		if rng.Intn(3) == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(b)
	a.Merge(nil)
	if !sameHist(a, whole) {
		t.Fatal("merged halves differ from the whole")
	}
	var nilHist *LogHist
	nilHist.Merge(whole) // no-op, no panic
}

// sameHist compares every bucket and the sum.
func sameHist(a, b *LogHist) bool {
	if a.Sum() != b.Sum() || a.Count() != b.Count() {
		return false
	}
	for i := range a.counts {
		if a.counts[i].Load() != b.counts[i].Load() {
			return false
		}
	}
	return true
}

func TestLogHistObserveAllocs(t *testing.T) {
	h := &LogHist{}
	v := int64(1)
	if got := testing.AllocsPerRun(1000, func() {
		h.Observe(v)
		v = v*7 + 3
	}); got > 0 {
		t.Fatalf("Observe allocs = %v, want 0", got)
	}
}

// One goroutine per writer observes while a reader takes quantiles,
// folds and merges; run under -race this proves the type needs no lock.
func TestLogHistConcurrent(t *testing.T) {
	const writers, each = 4, 5000
	h := &LogHist{}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < each; i++ {
				h.Observe(int64(rng.ExpFloat64() * 1e6))
			}
		}(int64(w))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for h.Count() < writers*each {
			if p50, p99 := h.Quantile(0.5), h.Quantile(0.99); p50 < 0 || p99 < 0 {
				t.Error("negative quantile")
			}
			var folded int64
			for _, c := range h.Pow2Counts() {
				folded += c
			}
			if folded < 0 || folded > writers*each {
				t.Errorf("folded count %d out of range", folded)
			}
			var snap LogHist
			snap.Merge(h)
		}
	}()
	wg.Wait()
	<-done
	if h.Count() != writers*each {
		t.Fatalf("Count = %d, want %d", h.Count(), writers*each)
	}
}

func TestLogHistNilSafe(t *testing.T) {
	var h *LogHist
	h.Observe(5)
	h.Merge(&LogHist{})
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 || h.Pow2Counts() != [Pow2Buckets]int64{} {
		t.Fatal("nil LogHist is not a zero no-op")
	}
	if (Percentile{Q: 0.99}).Value() != 0 {
		t.Fatal("Percentile of a nil histogram is not 0")
	}
	full := observeAll([]int64{10, 20, 30, 40})
	if got := (Percentile{Hist: full, Q: 0.75}).Value(); got != 30 {
		t.Fatalf("Percentile P75 = %v, want 30", got)
	}
}

// refPow2 is the log2 fold by a plain loop: the smallest k with v ≤ 2^k,
// capped at 63.
func refPow2(v int64) int {
	k := 0
	for k < Pow2Buckets-1 && v > int64(1)<<k {
		k++
	}
	return k
}

// FuzzLogHist feeds an arbitrary int64 stream (eight bytes a value) split
// at an arbitrary point. Quantiles must lie within the bound of a sort,
// the merged parts must equal the whole, and the power-of-two folds must
// equal a log2 count of the same values.
func FuzzLogHist(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.MaxInt64), uint16(1))
	seed := []byte{}
	for _, v := range []int64{0, 1, 128, 129, 130, 255, 256, 257, -1, 1 << 40, math.MaxInt64, math.MinInt64} {
		seed = binary.LittleEndian.AppendUint64(seed, uint64(v))
	}
	f.Add(seed, uint16(5))
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		xs := make([]int64, len(data)/8)
		for i := range xs {
			xs[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
		cut := 0
		if len(xs) > 0 {
			cut = int(split) % (len(xs) + 1)
		}
		whole, a, b := observeAll(xs), observeAll(xs[:cut]), observeAll(xs[cut:])
		if len(xs) > 0 {
			checkQuantiles(t, "fuzz", whole, xs, 0, 0.5, 0.99, 0.999, 1)
		}
		a.Merge(b)
		if !sameHist(a, whole) {
			t.Fatal("merged parts differ from the whole")
		}
		var want [Pow2Buckets]int64
		for _, v := range xs {
			want[refPow2(v)]++
		}
		if got := whole.Pow2Counts(); got != want {
			t.Fatalf("folds %v, log2 count %v", got, want)
		}
	})
}

// BenchmarkLogHistObserve times one observation, as a latency recorder
// makes it per request.
func BenchmarkLogHistObserve(b *testing.B) {
	h := &LogHist{}
	rng := rand.New(rand.NewSource(1))
	vs := make([]int64, 4096)
	for i := range vs {
		vs[i] = int64(rng.ExpFloat64() * 1e5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(vs[i%len(vs)])
	}
}
