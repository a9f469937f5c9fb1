package obs

import (
	"math"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Powers of two are the matrix's fold edges: a response of 2^i must land
// in fold i (upper edge inclusive), and 2^i + 1 must spill into fold
// i+1. The blame matrix, the quantile mapping and the Prometheus le edges
// all assume this alignment, so it is pinned across the whole
// representable range.
func TestHistPowerOfTwoBoundaries(t *testing.T) {
	var bl sim.Blame
	row := func(total int64) BlameRow {
		b := &BlameSet{}
		b.Observe(total, &bl)
		return b.BlameTable(0.5)[0]
	}
	for i := 1; i < metrics.Pow2Buckets-1; i++ {
		edge := int64(1) << uint(i)
		if r := row(edge); r.Bucket != i || r.UpperNs != edge {
			t.Errorf("response 2^%d: fold %d (edge %d), want %d (edge %d)", i, r.Bucket, r.UpperNs, i, edge)
		}
		if r := row(edge + 1); r.Bucket != i+1 || r.UpperNs != metrics.Pow2Upper(i+1) {
			t.Errorf("response 2^%d+1: fold %d, want %d", i, r.Bucket, i+1)
		}
	}
	// The bottom fold holds everything <= 1, including the degenerate
	// inputs; the top fold absorbs the unrepresentable tail.
	for _, v := range []int64{-1, 0, 1} {
		if r := row(v); r.Bucket != 0 || r.UpperNs != 1 {
			t.Errorf("response %d: fold %d, want 0", v, r.Bucket)
		}
	}
	if r := row(math.MaxInt64); r.Bucket != metrics.Pow2Buckets-1 || r.UpperNs != math.MaxInt64 {
		t.Errorf("response MaxInt64: fold %d edge %d", r.Bucket, r.UpperNs)
	}
}

// Requests whose responses all share one power-of-two fold answer every
// quantile's row with that fold: the matrix has no finer resolution, so
// each row carries all of the fold's requests and its edge, while the
// histogram's own quantiles stay finer inside it.
func TestHistSingleBucketQuantile(t *testing.T) {
	b := &BlameSet{}
	for _, v := range []int64{513, 700, 1000, 1024} { // all in fold 10 (edge 1024)
		var bl sim.Blame
		bl.Ns[sim.BlameCache] = v
		b.Observe(v, &bl)
	}
	for _, r := range b.BlameTable(0, 0.25, 0.5, 0.99, 0.999, 1) {
		if r.Bucket != 10 || r.UpperNs != 1024 || r.Count != 4 || r.MeanNs != (513+700+1000+1024)/4.0 {
			t.Fatalf("P%g row %+v, want fold 10, edge 1024, 4 requests", r.Quantile*100, r)
		}
	}
	if b.Count() != 4 {
		t.Fatalf("Count = %d", b.Count())
	}
	if got := b.total.Quantile(0.5); got != 704 { // 700 lies in (696, 704]
		t.Fatalf("response median = %d, want 704", got)
	}
}

// The blame instruments follow the same nil contract as every other obs
// instrument: a nil *BlameSet and a zero-value BlameSet (nil interior
// instruments) both absorb observations without panicking, and the
// report paths render the empty state instead of failing.
func TestBlameSetNilSafe(t *testing.T) {
	bl := &sim.Blame{GCPauseNs: 5, ScanCost: 3}
	bl.Ns[sim.BlameCache] = 100

	var nilSet *BlameSet
	nilSet.Observe(100, bl)
	nilSet.Observe(0, nil)
	if nilSet.Count() != 0 {
		t.Fatal("nil BlameSet.Count != 0")
	}
	if rows := nilSet.BlameTable(0.5, 0.99); rows != nil {
		t.Fatalf("nil BlameSet.BlameTable = %v, want nil", rows)
	}
	var sb strings.Builder
	if err := nilSet.WriteBlameTable(&sb, 0.5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no requests") {
		t.Fatalf("nil WriteBlameTable output %q", sb.String())
	}

	// Zero value: the cells matrix works, the interior *LogHist/*Counter
	// instruments are nil and must no-op individually.
	zero := &BlameSet{}
	zero.Observe(100, bl)
	zero.Observe(100, nil) // nil span is ignored, not counted
	if zero.Count() != 1 {
		t.Fatalf("zero-value BlameSet.Count = %d, want 1", zero.Count())
	}
	rows := zero.BlameTable(0.5)
	if len(rows) != 1 || rows[0].CauseNs[sim.BlameCache] != 100 {
		t.Fatalf("zero-value BlameTable rows = %+v", rows)
	}
}

// A registered BlameSet's table rows must decompose exactly: the
// per-cause means sum to the row's mean response time because the
// engine's partition is exact — any drift here means double counting.
func TestBlameTableRowsSumExactly(t *testing.T) {
	tel := New()
	b := tel.Blame
	for i := int64(1); i <= 64; i++ {
		var bl sim.Blame
		bl.Ns[sim.BlameQueue] = i
		bl.Ns[sim.BlameCache] = 2 * i
		bl.Ns[sim.BlameEvict] = 7
		b.Observe(bl.Total(), &bl)
	}
	if b.Count() != 64 {
		t.Fatalf("Count = %d", b.Count())
	}
	for _, r := range b.BlameTable(0.5, 0.99, 1) {
		var sum float64
		for c := 0; c < sim.NumBlameCauses; c++ {
			sum += r.CauseNs[c]
		}
		if math.Abs(sum-r.MeanNs) > 1e-9 {
			t.Fatalf("P%g: cause means sum %v != mean %v", r.Quantile*100, sum, r.MeanNs)
		}
		if r.Count == 0 {
			t.Fatalf("P%g: empty bucket selected", r.Quantile*100)
		}
	}
	// Dominant tallies cover every request exactly once.
	var doms int64
	for c := 0; c < sim.NumBlameCauses; c++ {
		doms += b.Dominant[c].Value()
	}
	if doms != 64 {
		t.Fatalf("dominant total = %d, want 64", doms)
	}
}
