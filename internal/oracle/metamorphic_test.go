package oracle

import (
	"fmt"
	"testing"

	"repro/internal/cache"
)

// Metamorphic properties: transformations of a workload with a provable
// effect on the output. Unlike the differential tests they need no second
// implementation — the fast implementation is checked against itself
// under the transformation, so a bug shared by oracle and fast code can
// still surface here.

// fastTrace replays a spec's requests through the fast implementation
// only and records the decision stream with all slices copied.
type fastTrace struct {
	hits, misses, inserted int
	evictions              [][]int64 // one sorted-or-canonical batch per eviction
	dirtyEvicted           int       // pages flushed from cache (padding excluded)
}

func runFast(t *testing.T, spec Spec) fastTrace {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	p := buildPair(&spec)
	var out fastTrace
	for _, req := range spec.Requests {
		res := p.fast.Access(req)
		out.hits += res.Hits
		out.misses += res.Misses
		out.inserted += res.Inserted
		for _, ev := range res.Evictions {
			out.evictions = append(out.evictions, append([]int64(nil), ev.LPNs...))
			out.dirtyEvicted += len(ev.LPNs) - len(ev.PaddingReads)
		}
	}
	return out
}

func metamorphicSpecs(seed int64, n int) []Spec {
	reqs := Generate(seed, "", n).Requests // one shared request stream
	mk := func(policy string, padding bool) Spec {
		return Spec{
			Policy: policy, CapacityPages: 24, Delta: 4, Merge: true, Recency: true,
			PagesPerBlock: 4, Padding: padding, Requests: reqs,
		}
	}
	return []Spec{
		mk("req-block", false),
		mk("lru", false),
		mk("bplru", false),
		mk("bplru", true),
		mk("fab", false),
		mk("lfu", false),
		mk("pud-lru", false),
	}
}

// TestMetamorphicRelabeling: adding a constant block-aligned offset to
// every LPN is a pure renaming — the hit/miss/insert stream must be
// identical and every eviction batch must be the original batch shifted
// by the same offset. Block alignment matters: BPLRU, FAB and PUD-LRU
// group by lpn/PagesPerBlock and BPLRU's LRU compensation looks at
// lpn%PagesPerBlock, both invariant only under multiples of the block
// size.
func TestMetamorphicRelabeling(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for _, spec := range metamorphicSpecs(seed, 120) {
			const shift = 3 * 4 // 3 blocks of PagesPerBlock=4
			shifted := spec
			shifted.Requests = append([]cache.Request(nil), spec.Requests...)
			for i := range shifted.Requests {
				shifted.Requests[i].LPN += shift
			}
			base := runFast(t, spec)
			moved := runFast(t, shifted)
			name := fmt.Sprintf("seed %d policy %s padding=%v", seed, spec.Policy, spec.Padding)
			if base.hits != moved.hits || base.misses != moved.misses || base.inserted != moved.inserted {
				t.Fatalf("%s: relabeling changed decisions: %d/%d/%d vs %d/%d/%d", name,
					base.hits, base.misses, base.inserted, moved.hits, moved.misses, moved.inserted)
			}
			if len(base.evictions) != len(moved.evictions) {
				t.Fatalf("%s: relabeling changed eviction count: %d vs %d", name,
					len(base.evictions), len(moved.evictions))
			}
			for bi := range base.evictions {
				if len(base.evictions[bi]) != len(moved.evictions[bi]) {
					t.Fatalf("%s: eviction %d size differs", name, bi)
				}
				for pi := range base.evictions[bi] {
					if base.evictions[bi][pi]+shift != moved.evictions[bi][pi] {
						t.Fatalf("%s: eviction %d page %d: %d vs %d (want +%d)", name, bi, pi,
							base.evictions[bi][pi], moved.evictions[bi][pi], shift)
					}
				}
			}
		}
	}
}

// TestMetamorphicReadOnlyTail: appending read requests to a workload can
// never change what was already flushed, and reads alone never flush —
// so the dirty-eviction count must be exactly the original's.
func TestMetamorphicReadOnlyTail(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for _, spec := range metamorphicSpecs(seed, 120) {
			extended := spec
			extended.Requests = append([]cache.Request(nil), spec.Requests...)
			last := spec.Requests[len(spec.Requests)-1]
			// Duplicate the final quarter of the workload as reads.
			for _, r := range spec.Requests[len(spec.Requests)*3/4:] {
				last.Time++
				extended.Requests = append(extended.Requests, cache.Request{
					Time: last.Time, Write: false, LPN: r.LPN, Pages: r.Pages,
				})
			}
			base := runFast(t, spec)
			ext := runFast(t, extended)
			name := fmt.Sprintf("seed %d policy %s padding=%v", seed, spec.Policy, spec.Padding)
			if base.dirtyEvicted != ext.dirtyEvicted {
				t.Fatalf("%s: read-only tail changed dirty evictions: %d vs %d", name,
					base.dirtyEvicted, ext.dirtyEvicted)
			}
			if len(base.evictions) != len(ext.evictions) {
				t.Fatalf("%s: read-only tail changed eviction batches: %d vs %d", name,
					len(base.evictions), len(ext.evictions))
			}
		}
	}
}

// TestMetamorphicCapacityMonotonicity: growing the buffer 16→32→64 pages
// must not lose hits for LRU — the classic stack property: an LRU cache's
// contents are always a prefix of a larger LRU cache's. The block- and
// request-granularity policies have no stack property (whole-block
// eviction can flush a page a smaller cache would have kept — the
// block-level analog of Belady's anomaly), so for them the check is a
// spot check: monotonicity must hold for the clear majority of seeds,
// catastrophic inversions fail.
func TestMetamorphicCapacityMonotonicity(t *testing.T) {
	type hitCounts struct{ c16, c32, c64 int }
	count := func(spec Spec, capacity int) int {
		s := spec
		s.CapacityPages = capacity
		return runFast(t, s).hits
	}
	const seeds = 8
	for _, tmpl := range metamorphicSpecs(0, 0) {
		tmpl := tmpl
		violations := 0
		for seed := int64(0); seed < seeds; seed++ {
			spec := tmpl
			spec.Requests = Generate(seed, "", 160).Requests
			h := hitCounts{count(spec, 16), count(spec, 32), count(spec, 64)}
			if tmpl.Policy == "lru" {
				if h.c16 > h.c32 || h.c32 > h.c64 {
					t.Fatalf("LRU stack property violated at seed %d: hits %d/%d/%d", seed, h.c16, h.c32, h.c64)
				}
				continue
			}
			if h.c16 > h.c32 || h.c32 > h.c64 {
				violations++
				t.Logf("policy %s padding=%v seed %d: non-monotonic hits %d/%d/%d (allowed exception)",
					tmpl.Policy, tmpl.Padding, seed, h.c16, h.c32, h.c64)
			}
		}
		if violations > seeds/4 {
			t.Fatalf("policy %s padding=%v: %d of %d seeds non-monotonic in capacity — beyond the documented exception rate",
				tmpl.Policy, tmpl.Padding, violations, seeds)
		}
	}
}
