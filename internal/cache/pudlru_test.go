package cache

import "testing"

func TestPUDLRUEvictsLeastFrequentlyUpdated(t *testing.T) {
	c := NewPUDLRU(4, 4)
	// Block 0: updated four times (hot). Block 1: written once (cold).
	// PUD(block 0) at t=400 = (400-0 + 400-250)/8 ≈ 69;
	// PUD(block 1) = (400-300 + 400-300)/2 = 100 → block 1 is the victim.
	c.Access(w(0, 0, 2))
	c.Access(w(100, 0, 2))
	c.Access(w(200, 0, 2))
	c.Access(w(250, 0, 2))
	c.Access(w(300, 4, 2))
	res := c.Access(w(400, 8, 1))
	got := res.Evictions[0].LPNs
	if len(got) != 2 || got[0] != 4 {
		t.Fatalf("evicted %v, want cold block 1's pages [4 5]", got)
	}
	if !c.Contains(0) || !c.Contains(1) {
		t.Fatal("hot block evicted")
	}
}

func TestPUDLRUNeverReupdatedBlockGoesFirst(t *testing.T) {
	// PUD-LRU's core judgment: a block that has never been re-updated has
	// an unbounded predicted update distance and is evicted before a
	// multiply-updated block — even one whose updates are older.
	c := NewPUDLRU(4, 4)
	for i := int64(0); i < 5; i++ {
		c.Access(w(i*10, 0, 2)) // block 0: five update rounds early on
	}
	c.Access(w(1_000_000, 4, 2)) // block 1: written once, more recently
	res := c.Access(w(100_000_000, 8, 1))
	got := res.Evictions[0].LPNs
	if len(got) != 2 || got[0] != 4 {
		t.Fatalf("evicted %v, want the never-re-updated block 1", got)
	}
	if !c.Contains(0) {
		t.Fatal("frequently updated block evicted")
	}
}

func TestPUDLRUTieBreaksTowardStaler(t *testing.T) {
	c := NewPUDLRU(4, 4)
	// Two blocks with identical update statistics: the one written
	// earlier (staler, nearer the list tail) must be the victim.
	c.Access(w(0, 0, 2))
	c.Access(w(0, 4, 2))
	res := c.Access(w(100, 8, 1))
	got := res.Evictions[0].LPNs
	if len(got) != 2 || got[0] != 0 {
		t.Fatalf("evicted %v, want the tail-side block 0", got)
	}
}

func TestPUDLRUFlushesWholeBlockBlockBound(t *testing.T) {
	c := NewPUDLRU(3, 4)
	c.Access(w(0, 0, 3))
	res := c.Access(w(1, 8, 1))
	ev := res.Evictions[0]
	if len(ev.LPNs) != 3 || !ev.BlockBound {
		t.Fatalf("eviction %+v, want 3-page block-bound batch", ev)
	}
}

func TestPUDLRUReadPath(t *testing.T) {
	c := NewPUDLRU(8, 4)
	c.Access(w(0, 0, 1))
	res := c.Access(r(1, 0, 2))
	if res.Hits != 1 || len(res.ReadMisses) != 1 {
		t.Fatalf("read path wrong: %+v", res)
	}
	if c.Len() != 1 {
		t.Fatal("read inserted pages")
	}
}

func TestPUDLRUUpdateCountsPerBlock(t *testing.T) {
	c := NewPUDLRU(8, 4)
	c.Access(w(0, 0, 2)) // block 0: 2 update events... one per page
	b := c.blocks.Get(0)
	if b.updates != 2 {
		t.Fatalf("updates = %d, want 2 (one per written page)", b.updates)
	}
	c.Access(w(1, 1, 1)) // hit page 1
	if b.updates != 3 {
		t.Fatalf("updates = %d after hit, want 3", b.updates)
	}
}

func TestPUDLRUCapacityRespected(t *testing.T) {
	c := NewPUDLRU(8, 4)
	for i := int64(0); i < 20; i++ {
		c.Access(w(i, i*4, 3))
		if c.Len() > c.CapacityPages() {
			t.Fatalf("capacity exceeded at %d: %d", i, c.Len())
		}
	}
}

func TestPUDLRUIdentity(t *testing.T) {
	c := NewPUDLRU(8, 4)
	if c.Name() != "PUD-LRU" || c.NodeBytes() != 32 {
		t.Fatal("identity wrong")
	}
}
