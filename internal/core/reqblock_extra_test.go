package core

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
)

// Additional Req-block scenarios beyond the Algorithm 1 basics.

func TestUpgradePreservesAccessCount(t *testing.T) {
	c := New(64)
	c.Access(w(0, 0, 3))
	c.Access(w(1, 0, 1)) // → SRL, cnt 2
	c.Access(w(2, 1, 1)) // hit again in SRL, cnt 3
	if _, cnt, ok := c.BlockOf(0); !ok || cnt != 3 {
		t.Fatalf("accessCnt = %d, want 3", cnt)
	}
	if c.WhereIs(0) != "SRL" {
		t.Fatal("block left SRL")
	}
	mustInv(t, c)
}

func TestEvictionFromSRLOnly(t *testing.T) {
	// When SRL is the only populated list, its tail must be evictable.
	c := New(4)
	c.Access(w(0, 0, 2))
	c.Access(w(1, 0, 1)) // block A → SRL
	c.Access(w(2, 10, 2))
	c.Access(w(3, 10, 1)) // block B → SRL; cache full (4 pages), IRL empty
	if lp := c.ListPages(); lp["IRL"] != 0 || lp["SRL"] != 4 {
		t.Fatalf("setup: %v", lp)
	}
	res := c.Access(w(1000, 20, 1))
	if len(res.Evictions) != 1 {
		t.Fatalf("evictions: %+v", res.Evictions)
	}
	// Victim must be one whole SRL block (2 pages).
	if got := res.Evictions[0].LPNs; len(got) != 2 {
		t.Fatalf("evicted %v, want one 2-page SRL block", got)
	}
	mustInv(t, c)
}

func TestMixedHitMissRequest(t *testing.T) {
	c := New(64)
	c.Access(w(0, 0, 2))        // pages 0,1 cached
	res := c.Access(w(1, 0, 4)) // hits 0,1; misses 2,3
	if res.Hits != 2 || res.Misses != 2 || res.Inserted != 2 {
		t.Fatalf("result %+v", res)
	}
	// The hit pages upgraded the (small) original block to SRL; the
	// missed pages formed a new IRL block belonging to this request.
	if c.WhereIs(0) != "SRL" || c.WhereIs(2) != "IRL" {
		t.Fatalf("placement: %s / %s", c.WhereIs(0), c.WhereIs(2))
	}
	if n, _, _ := c.BlockOf(2); n != 2 {
		t.Fatalf("new block pages = %d, want 2", n)
	}
	mustInv(t, c)
}

func TestSplitOfSplitPropagatesOrigin(t *testing.T) {
	// A split block in DRL that grows beyond δ and is hit again splits
	// once more; the grand-split's origin must point at the ORIGINAL IRL
	// block (originOf chases one level), so merging still finds it.
	c := NewConfig(32, Config{Delta: 2, Merge: true, Recency: false})
	c.Access(w(0, 0, 8)) // A in IRL
	c.Access(w(1, 1, 3)) // D1 = {1,2,3} in DRL (3 > δ), origin A; A = {0,4..7}
	c.Access(w(2, 2, 1)) // hit inside large D1 → D2 = {2}, origin must be A
	if c.WhereIs(2) != "DRL" {
		t.Fatal("grand split not in DRL")
	}
	blk := c.index.Get(2).blk
	if blk.origin == nil || blk.origin != c.index.Get(0).blk {
		t.Fatal("grand split's origin does not point at the IRL original")
	}
	mustInv(t, c)
}

func TestOriginEvictedBeforeSplitNotMerged(t *testing.T) {
	// The origin is evicted first; when the split later becomes the
	// victim, the stale pointer must not resurrect freed pages.
	c := NewConfig(8, Config{Delta: 2, Merge: true, Recency: false})
	c.Access(w(0, 0, 8)) // A = {0..7}, cnt 1
	c.Access(w(1, 1, 2)) // D = {1,2} origin A (score 0.5); A = {0,3..7} cnt 3 → 0.5
	// Cache full at 8. Next insert evicts: IRL tail A ties D at 0.5 and
	// IRL wins ties → A (the origin) leaves first, alone.
	res := c.Access(w(2, 20, 1))
	if got := evictedLPNs(res); len(got) != 6 || got[0] != 0 || got[5] != 7 {
		t.Fatalf("first eviction %v, want A's remainder [0 3 4 5 6 7]", got)
	}
	// Fill with singles, then force D's eviction; its origin is gone.
	c.Access(w(3, 21, 1))
	c.Access(w(4, 22, 1))
	c.Access(w(5, 23, 1))
	c.Access(w(6, 24, 1))
	c.Access(w(7, 25, 1)) // cache back to 8 pages
	res = c.Access(w(8, 30, 1))
	// Victim comparison: IRL tail {20} scores 1.0, DRL tail D 0.5 → D.
	got := evictedLPNs(res)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("eviction %v, want the split [1 2] alone (origin gone)", got)
	}
	mustInv(t, c)
}

func TestHugeDeltaMakesEverythingSmall(t *testing.T) {
	c := NewConfig(64, Config{Delta: 1000, Merge: true, Recency: true})
	c.Access(w(0, 0, 32))
	c.Access(w(1, 5, 1))
	if c.WhereIs(5) != "SRL" || c.WhereIs(0) != "SRL" {
		t.Fatal("huge delta: every hit block must upgrade whole to SRL")
	}
	if lp := c.ListPages(); lp["DRL"] != 0 {
		t.Fatal("DRL must stay empty with a huge delta")
	}
	mustInv(t, c)
}

func TestListPagesSumEqualsLen(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := New(32)
	for i := 0; i < 1000; i++ {
		c.Access(cache.Request{
			Time:  int64(i) * 100,
			Write: rng.Intn(10) < 8,
			LPN:   rng.Int63n(128),
			Pages: 1 + rng.Intn(10),
		})
		sum := 0
		for _, v := range c.ListPages() {
			sum += v
		}
		if sum != c.Len() {
			t.Fatalf("op %d: list pages %d != Len %d", i, sum, c.Len())
		}
	}
	mustInv(t, c)
}

func TestReadOnlyWorkloadNeverMutates(t *testing.T) {
	c := New(16)
	for i := int64(0); i < 100; i++ {
		res := c.Access(r(i, i*3, 2))
		if res.Inserted != 0 || len(res.Evictions) != 0 {
			t.Fatalf("read mutated the cache: %+v", res)
		}
	}
	if c.Len() != 0 || c.NodeCount() != 0 {
		t.Fatal("cache not empty after read-only workload")
	}
}

func TestFreqPrefersRecentOverOld(t *testing.T) {
	// Same size and count: the recently inserted block survives (Eq. 1's
	// aging term).
	c := New(4)
	c.Access(w(0, 0, 2))          // old
	c.Access(w(1_000_000, 10, 2)) // young
	res := c.Access(w(2_000_000, 20, 1))
	if got := evictedLPNs(res); got[0] != 0 {
		t.Fatalf("evicted %v, want the old block's pages", got)
	}
	mustInv(t, c)
}

func TestRecencyOffIgnoresAge(t *testing.T) {
	// Without the aging term, equal score blocks tie and the tie breaks
	// by tail position (the older block): same outcome, different path;
	// but a higher-count old block must now WIN against a young one.
	c := NewConfig(4, Config{Delta: 5, Merge: true, Recency: false})
	c.Access(w(0, 0, 2))
	c.Access(w(1, 0, 1))  // old block cnt 3 → score 1.5... (2 pages, cnt 2→ wait)
	c.Access(w(2, 10, 2)) // young block cnt 1 → 0.5
	res := c.Access(w(1_000_000, 20, 1))
	if got := evictedLPNs(res); got[0] != 10 {
		t.Fatalf("evicted %v, want the low-count young block despite its youth", got)
	}
	mustInv(t, c)
}

func TestDRLBlockGrowthAcrossPages(t *testing.T) {
	// One request hitting many pages of a large block builds one DRL
	// block whose page count equals the hits.
	c := New(64)
	c.Access(w(0, 0, 12))
	res := c.Access(w(1, 2, 6))
	if res.Hits != 6 {
		t.Fatalf("hits = %d", res.Hits)
	}
	if n, _, _ := c.BlockOf(2); n != 6 {
		t.Fatalf("DRL block pages = %d, want 6", n)
	}
	if n, _, _ := c.BlockOf(0); n != 6 {
		t.Fatalf("IRL remainder pages = %d, want 6", n)
	}
	mustInv(t, c)
}

func TestFullRehitSplitsUntilSmallThenUpgrades(t *testing.T) {
	// Re-hitting every page of a large block walks Algorithm 1's two hit
	// branches in sequence: pages split into DRL while the remainder is
	// still large; once it shrinks to δ pages, the next hit upgrades the
	// remainder whole to SRL.
	c := New(64) // δ = 5
	c.Access(w(0, 0, 8))
	c.Access(w(1, 0, 8)) // hits all 8 pages
	lp := c.ListPages()
	if lp["IRL"] != 0 {
		t.Fatalf("IRL pages = %d, want 0", lp["IRL"])
	}
	// Pages 0,1,2 split off (remainder 7,6,5 pages were large); at page 3
	// the remainder {3..7} has 5 ≤ δ pages and upgrades whole to SRL.
	if lp["DRL"] != 3 || lp["SRL"] != 5 {
		t.Fatalf("DRL/SRL = %d/%d, want 3/5", lp["DRL"], lp["SRL"])
	}
	if c.NodeCount() != 2 {
		t.Fatalf("NodeCount = %d, want 2 (one DRL block + SRL remainder)", c.NodeCount())
	}
	mustInv(t, c)
}

func TestInterleavedRequestsDontShareBlocks(t *testing.T) {
	// Two interleaved writers: pages inserted by different requests go to
	// different request blocks even when addresses interleave.
	c := New(64)
	c.Access(w(0, 0, 2))  // req 1: pages 0,1
	c.Access(w(1, 10, 2)) // req 2: pages 10,11
	c.Access(w(2, 2, 2))  // req 3: pages 2,3 — adjacent to req 1's, separate block
	if c.NodeCount() != 3 {
		t.Fatalf("NodeCount = %d, want 3", c.NodeCount())
	}
	n1, _, _ := c.BlockOf(0)
	n3, _, _ := c.BlockOf(2)
	if n1 != 2 || n3 != 2 {
		t.Fatalf("block sizes %d/%d, want 2/2", n1, n3)
	}
	mustInv(t, c)
}
