package cache

import (
	"math/bits"
	"math/rand"
	"testing"
)

// TestIndexedVictimScanIsLogarithmic bounds the victim-selection work of
// the heap-indexed policies, deterministically: FAB and LFU are filled to
// 16Ki and 1Mi pages (64 MiB and 4 GiB of 4 KiB pages) and churned with
// random 1..8-page writes over twice the capacity, the workload of the
// root package's BenchmarkCapacityEviction. For every Access that evicts,
// the VictimScanCost delta per returned eviction batch must not exceed
// 1 + floor(log2 capacity): one heap pop plus one level per sift. An O(n)
// victim scan, or a heap that keeps stale entries, breaks the bound long
// before a timing gate would notice.
//
// PUD-LRU is left out: its eviction peeks the heap of every populated
// update-count bucket, so its cost is the bucket count (a few hundred per
// eviction on this churn), not a logarithm of the capacity.
func TestIndexedVictimScanIsLogarithmic(t *testing.T) {
	policies := []struct {
		name string
		mk   func(capPages int) Policy
	}{
		{"FAB", func(n int) Policy { return NewFAB(n, 64) }},
		{"LFU", func(n int) Policy { return NewLFU(n) }},
	}
	for _, capPages := range []int{16 << 10, 1 << 20} {
		bound := int64(bits.Len(uint(capPages))) // 1 + floor(log2 capPages)
		for _, tc := range policies {
			pol := tc.mk(capPages)
			scan := pol.(VictimScanReporter)
			// Fill with distinct sequential pages, 4- and 8-page requests.
			now, written := int64(0), int64(0)
			for si := 0; written < int64(capPages); si++ {
				pages := min([4]int{4, 4, 4, 8}[si%4], capPages-int(written))
				now += 1000
				pol.Access(Request{Time: now, Write: true, LPN: written, Pages: pages})
				written += int64(pages)
			}
			rng := rand.New(rand.NewSource(int64(capPages)))
			lpnRange := 2 * int64(capPages)
			var worst, evicting int64
			for i := 0; i < 20000; i++ {
				now += 1000
				pages := 1 + rng.Intn(8)
				lpn := rng.Int63n(lpnRange - int64(pages))
				before := scan.VictimScanCost()
				res := pol.Access(Request{Time: now, Write: true, LPN: lpn, Pages: pages})
				if len(res.Evictions) == 0 {
					continue
				}
				evicting++
				perBatch := (scan.VictimScanCost() - before) / int64(len(res.Evictions))
				worst = max(worst, perBatch)
				if perBatch > bound {
					t.Fatalf("%s at %d pages: access %d cost %d per eviction batch, bound %d",
						tc.name, capPages, i, perBatch, bound)
				}
			}
			if evicting < 100 {
				t.Fatalf("%s at %d pages: only %d of 20000 accesses evicted", tc.name, capPages, evicting)
			}
			t.Logf("%s at %d pages: worst %d per batch over %d evicting accesses (bound %d)",
				tc.name, capPages, worst, evicting, bound)
		}
	}
}
