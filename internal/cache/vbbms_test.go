package cache

import "testing"

func TestVBBMSClassifiesBySize(t *testing.T) {
	c := NewVBBMS(20)      // random cap 12, sequential cap 8
	c.Access(w(0, 0, 2))   // small -> random
	c.Access(w(1, 100, 6)) // large -> sequential
	if c.RegionOf(0) != "random" {
		t.Fatalf("page 0 in %q", c.RegionOf(0))
	}
	if c.RegionOf(100) != "sequential" {
		t.Fatalf("page 100 in %q", c.RegionOf(100))
	}
	if occ := c.AppendOccupancy(nil); len(occ) != 2 || occ[0] != 2 || occ[1] != 6 {
		t.Fatalf("occupancy %v = %v, want [2 6]", c.OccupancyNames(), occ)
	}
}

func TestVBBMSRegionSplit3to2(t *testing.T) {
	c := NewVBBMS(20)
	if c.random.capacity != 12 || c.sequential.capacity != 8 {
		t.Fatalf("split = %d:%d, want 12:8", c.random.capacity, c.sequential.capacity)
	}
}

func TestVBBMSRandomRegionIsLRU(t *testing.T) {
	c := NewVBBMSConfig(6, 1, 1, 3, 4, 100) // 3 pages per region, all random
	c.Access(w(0, 0, 1))                    // vb 0
	c.Access(w(1, 3, 1))                    // vb 1
	c.Access(w(2, 6, 1))                    // vb 2
	c.Access(w(3, 0, 1))                    // hit vb 0 -> head
	res := c.Access(w(4, 9, 1))
	if got := res.Evictions[0].LPNs; got[0] != 3 {
		t.Fatalf("evicted %v, want vb 1 (LRU)", got)
	}
}

func TestVBBMSSequentialRegionIsFIFO(t *testing.T) {
	c := NewVBBMSConfig(16, 1, 1, 3, 4, 5) // 8 pages per region
	c.Access(w(0, 0, 5))                   // sequential vbs 0 (pages 0-3) and 1 (page 4)
	c.Access(w(1, 0, 5))                   // hits all 5 — FIFO must not refresh
	c.Access(w(2, 20, 5))                  // needs room: 5+5 > 8 -> evicts oldest vb(s)
	if c.Contains(0) {
		t.Fatal("FIFO region refreshed a hit block; vb 0 should have been evicted first")
	}
}

func TestVBBMSVirtualBlockAlignment(t *testing.T) {
	c := NewVBBMS(30)
	// Pages 2 and 3 straddle a 3-page virtual-block boundary in the
	// random region: they must land in different virtual blocks.
	c.Access(w(0, 2, 1))
	c.Access(w(1, 3, 1))
	if c.random.order.Len() != 2 {
		t.Fatalf("virtual blocks = %d, want 2", c.random.order.Len())
	}
}

func TestVBBMSEvictionFlushesWholeVirtualBlock(t *testing.T) {
	c := NewVBBMSConfig(6, 1, 1, 3, 4, 100)
	c.Access(w(0, 0, 3)) // vb 0 fully populated
	res := c.Access(w(1, 9, 3))
	ev := res.Evictions[0]
	if len(ev.LPNs) != 3 || ev.BlockBound {
		t.Fatalf("eviction %+v, want 3-page striped batch", ev)
	}
}

func TestVBBMSCrossRegionHit(t *testing.T) {
	c := NewVBBMS(20)
	c.Access(w(0, 0, 2))        // random region
	res := c.Access(w(1, 0, 6)) // sequential-classified, but pages 0,1 live in random
	if res.Hits != 2 || res.Misses != 4 {
		t.Fatalf("cross-region hits wrong: %+v", res)
	}
	if c.RegionOf(0) != "random" {
		t.Fatal("hit page migrated regions unexpectedly")
	}
	if c.RegionOf(2) != "sequential" {
		t.Fatal("missed pages must insert into the classified region")
	}
}

func TestVBBMSEvictionClearsHomeIndex(t *testing.T) {
	c := NewVBBMSConfig(6, 1, 1, 3, 4, 100)
	c.Access(w(0, 0, 3))
	c.Access(w(1, 9, 3)) // evicts vb 0
	if c.Contains(0) || c.Contains(1) || c.Contains(2) {
		t.Fatal("evicted pages still indexed")
	}
	// Reinsert must work cleanly.
	res := c.Access(w(2, 0, 1))
	if res.Inserted != 1 {
		t.Fatalf("reinsert failed: %+v", res)
	}
}

func TestVBBMSTinyCapacity(t *testing.T) {
	c := NewVBBMS(2)
	c.Access(w(0, 0, 1))
	c.Access(w(1, 100, 9))
	if c.Len() > c.CapacityPages() {
		t.Fatalf("capacity exceeded: %d > %d", c.Len(), c.CapacityPages())
	}
}

func TestVBBMSNodeAccounting(t *testing.T) {
	c := NewVBBMS(20)
	c.Access(w(0, 0, 2))
	c.Access(w(1, 100, 6))
	if c.NodeBytes() != 24 {
		t.Fatal("node bytes wrong")
	}
	if c.NodeCount() != 1+2 { // 1 random vb + 2 sequential vbs (4+2 pages)
		t.Fatalf("NodeCount = %d", c.NodeCount())
	}
}

// VBBMS's victim is its region's order-list tail, so selecting one is an
// O(1) pop: one scan step per flushed virtual block.
func TestVBBMSTailPopScanCost(t *testing.T) {
	c := NewVBBMS(20)
	evictions := 0
	for i := int64(0); i < 16; i++ { // overfills the 12-page random region
		evictions += len(c.Access(w(i, i, 1)).Evictions)
	}
	if evictions == 0 {
		t.Fatal("no eviction reached the victim pop")
	}
	if got, want := c.VictimScanCost(), int64(evictions); got != want {
		t.Fatalf("scan cost = %d, want %d (one tail pop per eviction)", got, want)
	}
}
