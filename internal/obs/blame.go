package obs

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// BlameSet aggregates the engine's per-request blame spans (sim.Blame)
// into per-cause histograms, dominant-cause counters, and a fixed latency
// bucket × cause matrix that answers "what fraction of P99.9 is GC pause
// vs. back-pressure vs. queueing". Like every obs instrument it is
// nil-safe, atomic, and allocation-free on the observe path: the matrix is
// pre-sized (metrics.Pow2Buckets × NumBlameCauses atomics), so folding a
// request is a handful of atomic adds.
type BlameSet struct {
	// Cause[c] is the distribution of nonzero time charged to cause c.
	Cause [sim.NumBlameCauses]*metrics.LogHist
	// Dominant[c] counts requests whose largest share was cause c.
	Dominant [sim.NumBlameCauses]*Counter
	// GCOverlap is the distribution of foreground GC pause accumulated
	// while a request dispatched (overlaps the flash causes; reported
	// alongside the partition, not inside it).
	GCOverlap *metrics.LogHist
	// ScanWork is the distribution of nonzero victim-scan work charged to
	// a request's evictions.
	ScanWork *metrics.LogHist

	// total is the distribution of the folded requests' response times;
	// its power-of-two folds are the matrix rows' request counts.
	total metrics.LogHist
	// cells[b] aggregates the requests whose total response time fell in
	// power-of-two fold b (metrics.Pow2Bucket): per-cause nanosecond
	// totals and per-cause dominant counts. Per-fold cause means sum
	// exactly to the per-fold mean response time because the engine's
	// partition is exact.
	cells [metrics.Pow2Buckets]blameCell
}

type blameCell struct {
	ns       [sim.NumBlameCauses]atomic.Int64
	dominant [sim.NumBlameCauses]atomic.Int64
}

// newBlameSet registers the blame instruments in the catalog registry.
func newBlameSet(r *Registry) *BlameSet {
	b := &BlameSet{}
	for c := 0; c < sim.NumBlameCauses; c++ {
		name := sim.BlameCause(c).String()
		b.Cause[c] = r.Hist("ssdsim_blame_"+name+"_ns",
			"Response time attributed to the "+name+" cause, nonzero shares only, simulated ns.")
		b.Dominant[c] = r.Counter("ssdsim_blame_dominant_"+name+"_total",
			"Requests whose largest blame share was the "+name+" cause.")
	}
	b.GCOverlap = r.Hist("ssdsim_blame_gc_overlap_ns",
		"Foreground GC pause accumulated while a request dispatched (overlaps flash causes), simulated ns.")
	b.ScanWork = r.Hist("ssdsim_blame_scan_cost",
		"Victim-scan work charged to a request's evictions, nonzero only.")
	return b
}

// Observe folds one request's blame span. total must be the request's
// response time (Completion - arrival), which equals bl.Total() by the
// engine's construction; it is passed in because the caller already has it.
func (b *BlameSet) Observe(total int64, bl *sim.Blame) {
	if b == nil || bl == nil {
		return
	}
	dom := bl.Dominant()
	b.Dominant[dom].Inc()
	if bl.GCPauseNs > 0 {
		b.GCOverlap.Observe(bl.GCPauseNs)
	}
	if bl.ScanCost > 0 {
		b.ScanWork.Observe(bl.ScanCost)
	}
	b.total.Observe(total)
	cell := &b.cells[metrics.Pow2Bucket(total)]
	cell.dominant[dom].Add(1)
	for c := 0; c < sim.NumBlameCauses; c++ {
		if v := bl.Ns[c]; v != 0 {
			b.Cause[c].Observe(v)
			cell.ns[c].Add(v)
		}
	}
}

// Count returns the number of requests folded into the matrix.
func (b *BlameSet) Count() int64 {
	if b == nil {
		return 0
	}
	return b.total.Count()
}

// BlameRow is one quantile's decomposition from BlameTable.
type BlameRow struct {
	// Quantile is the requested rank (0..1).
	Quantile float64
	// Bucket is the power-of-two fold holding that rank's response time;
	// UpperNs its upper edge, so the response-time histogram's quantile
	// lies in (UpperNs/2, UpperNs].
	Bucket  int
	UpperNs int64
	// Count is the number of requests in the bucket; MeanNs their mean
	// response time; CauseNs[c] the mean time charged to cause c. The
	// CauseNs entries sum exactly to MeanNs.
	Count   int64
	MeanNs  float64
	CauseNs [sim.NumBlameCauses]float64
	// Dominant is the cause that most often had the largest share among
	// the bucket's requests; DominantShare its fraction of the bucket.
	Dominant      sim.BlameCause
	DominantShare float64
}

// BlameTable decomposes each requested quantile of the response-time
// distribution into per-cause means over the power-of-two fold holding
// it. The fold is the one holding metrics.LogHist.Quantile's answer, so
// the rows line up with the ssdsim_request_latency_ns histogram.
func (b *BlameSet) BlameTable(qs ...float64) []BlameRow {
	if b == nil || len(qs) == 0 || b.Count() == 0 {
		return nil
	}
	counts := b.total.Pow2Counts()
	rows := make([]BlameRow, 0, len(qs))
	for _, q := range qs {
		bucket := metrics.Pow2Bucket(b.total.Quantile(q))
		cell := &b.cells[bucket]
		row := BlameRow{Quantile: q, Bucket: bucket, UpperNs: metrics.Pow2Upper(bucket), Count: counts[bucket]}
		if row.Count > 0 {
			var sum int64
			for c := 0; c < sim.NumBlameCauses; c++ {
				ns := cell.ns[c].Load()
				sum += ns
				row.CauseNs[c] = float64(ns) / float64(row.Count)
			}
			row.MeanNs = float64(sum) / float64(row.Count)
			best, bestN := sim.BlameQueue, int64(-1)
			for c := 0; c < sim.NumBlameCauses; c++ {
				if n := cell.dominant[c].Load(); n > bestN {
					best, bestN = sim.BlameCause(c), n
				}
			}
			row.Dominant = best
			row.DominantShare = float64(bestN) / float64(row.Count)
		}
		rows = append(rows, row)
	}
	return rows
}

// WriteBlameTable renders BlameTable(qs...) as an aligned text table: one
// row per quantile, one column per cause (mean ns), plus the bucket's
// request count, mean response time, and most-frequent dominant cause.
func (b *BlameSet) WriteBlameTable(w io.Writer, qs ...float64) error {
	rows := b.BlameTable(qs...)
	if len(rows) == 0 {
		_, err := fmt.Fprintln(w, "blame: no requests observed")
		return err
	}
	if _, err := fmt.Fprintf(w, "%-8s %10s %14s", "blame", "requests", "mean_ns"); err != nil {
		return err
	}
	for c := 0; c < sim.NumBlameCauses; c++ {
		if _, err := fmt.Fprintf(w, " %12s", sim.BlameCause(c).String()); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, " %14s\n", "dominant"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "P%-7s %10d %14.0f", trimQuantile(r.Quantile), r.Count, r.MeanNs); err != nil {
			return err
		}
		for c := 0; c < sim.NumBlameCauses; c++ {
			if _, err := fmt.Fprintf(w, " %12.0f", r.CauseNs[c]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, " %8s %4.0f%%\n", r.Dominant, 100*r.DominantShare); err != nil {
			return err
		}
	}
	return nil
}

// trimQuantile renders 0.999 as "99.9", 0.5 as "50".
func trimQuantile(q float64) string {
	s := fmt.Sprintf("%g", q*100)
	return s
}
