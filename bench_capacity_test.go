package repro

// Capacity-scaling benchmarks for the indexed victim-selection core
// (internal/vindex). Each heap-indexed policy runs across buffer
// capacities from the paper's 64 MB up to 4 GB (4 KB pages), under
// steady-state eviction churn. Reported metrics:
//
//   - pages/s        raw write throughput including eviction work
//   - ns/evict       timed span divided by eviction batches
//   - p99-evict-ns   99th percentile latency of an Access that evicted —
//                    the eviction stall a request actually observes
//
// Run it with `go test -run '^$' -bench BenchmarkCapacityEviction .`; no
// baseline is checked in (see docs/PERFORMANCE.md). No gate reads these
// wall-clock figures: the eviction cost bound is
// TestIndexedVictimScanIsLogarithmic (internal/cache), which counts
// victim-scan steps instead.

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/cache"
)

// capacityPoints is the sweep: 64 MB to 4 GB of 4 KB pages.
var capacityPoints = []struct {
	label string
	pages int
}{
	{"cap=64MB", 16 << 10},
	{"cap=256MB", 64 << 10},
	{"cap=1GB", 256 << 10},
	{"cap=4GB", 1 << 20},
}

// capacityPolicies are the heap-indexed policies under test.
// pagesPerBlock 64 matches the simulated device geometry.
var capacityPolicies = []struct {
	name string
	mk   func(capPages int) cache.Policy
}{
	{"fab", func(n int) cache.Policy { return cache.NewFAB(n, 64) }},
	{"lfu", func(n int) cache.Policy { return cache.NewLFU(n) }},
	{"pud-lru", func(n int) cache.Policy { return cache.NewPUDLRU(n, 64) }},
}

func BenchmarkCapacityEviction(b *testing.B) {
	for _, pol := range capacityPolicies {
		for _, pt := range capacityPoints {
			// "indexed" keeps the row names of earlier recorded sweeps
			// (docs/PERFORMANCE.md), so runs of older commits compare
			// row by row.
			b.Run(pol.name+"/indexed/"+pt.label, func(b *testing.B) {
				benchCapacityEviction(b, pol.mk, pt.pages)
			})
		}
	}
}

func benchCapacityEviction(b *testing.B, mk func(int) cache.Policy, capPages int) {
	pol := mk(capPages)
	// Fill to capacity with distinct sequential pages delivered as a 3:2
	// interleave of 4-page and 8-page requests. Block-grouping policies
	// may evict a handful of pages on the way, so the check is a 95% floor
	// rather than equality.
	now := int64(0)
	written := int64(0)
	fillSizes := [...]int{4, 4, 4, 8}
	for si := 0; written < int64(capPages); si++ {
		pages := fillSizes[si%len(fillSizes)]
		if rem := int64(capPages) - written; rem < int64(pages) {
			pages = int(rem)
		}
		now += 1000
		pol.Access(cache.Request{Time: now, Write: true, LPN: written, Pages: pages})
		written += int64(pages)
	}
	if pol.Len() < capPages-capPages/20 {
		b.Fatalf("fill reached %d of %d pages", pol.Len(), capPages)
	}
	// Steady state: random writes over twice the capacity, so roughly
	// every other request misses and most misses evict. Sizes span 1..8.
	lpnRange := uint64(capPages) * 2
	rng := newSplitMix(uint64(capPages)*2654435761 + 1)
	var pages, evictions, evictNs int64
	stalls := make([]int64, 0, b.N)
	// Collect the fill's garbage now, so its marking and write barriers
	// do not run into the timed loop.
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 1000
		req := cache.Request{
			Time:  now,
			Write: true,
			LPN:   int64(rng.next() % lpnRange),
			Pages: 1 + int(rng.next()%8),
		}
		if req.LPN+int64(req.Pages) > int64(lpnRange) {
			req.LPN = int64(lpnRange) - int64(req.Pages)
		}
		start := time.Now()
		res := pol.Access(req)
		elapsed := time.Since(start)
		pages += int64(req.Pages)
		if len(res.Evictions) > 0 {
			evictions += int64(len(res.Evictions))
			evictNs += elapsed.Nanoseconds()
			stalls = append(stalls, elapsed.Nanoseconds())
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(pages)/b.Elapsed().Seconds(), "pages/s")
	if evictions > 0 {
		// Time spent inside evicting Accesses per eviction batch — the
		// victim-selection cost a stalled request pays, excluding the
		// hit/miss traffic between evictions.
		b.ReportMetric(float64(evictNs)/float64(evictions), "ns/evict")
	}
	if len(stalls) > 0 {
		sort.Slice(stalls, func(i, j int) bool { return stalls[i] < stalls[j] })
		b.ReportMetric(float64(stalls[len(stalls)*99/100]), "p99-evict-ns")
	}
	// Occupancy must stay within capacity under benchmark load.
	if pol.Len() > capPages {
		b.Fatalf("policy exceeded capacity: %d > %d", pol.Len(), capPages)
	}
}
