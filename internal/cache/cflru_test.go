package cache

import (
	"math/rand"
	"testing"
)

func TestCFLRUPrefersCleanVictim(t *testing.T) {
	c := NewCFLRUWindow(4, 4, true)
	c.Access(w(0, 1, 1))  // dirty
	c.Access(r(1, 10, 1)) // miss -> inserted clean
	c.Access(w(2, 2, 1))  // dirty
	c.Access(w(3, 3, 1))  // dirty; cache now full
	res := c.Access(w(4, 4, 1))
	if len(res.Evictions) != 1 {
		t.Fatalf("evictions = %+v", res.Evictions)
	}
	ev := res.Evictions[0]
	if !ev.CleanDrop || ev.LPNs[0] != 10 {
		t.Fatalf("expected clean drop of 10, got %+v", ev)
	}
}

func TestCFLRUWindowLimitsCleanSearch(t *testing.T) {
	// Window of 1: only the very tail is scanned. Tail is dirty, so the
	// clean page further up must survive and the dirty tail is flushed.
	c := NewCFLRUWindow(3, 1, true)
	c.Access(r(0, 10, 1)) // clean
	c.Access(w(1, 1, 1))  // dirty — becomes MRU
	c.Access(w(2, 2, 1))
	// LRU order head->tail: 2,1,10. Tail is clean 10 → window 1 sees it.
	res := c.Access(w(3, 3, 1))
	if !res.Evictions[0].CleanDrop {
		t.Fatalf("tail clean page not dropped: %+v", res.Evictions[0])
	}
	// Now tail is dirty (1): a further insert must flush dirty.
	c2 := NewCFLRUWindow(3, 1, true)
	c2.Access(w(0, 1, 1))
	c2.Access(r(1, 10, 1))
	c2.Access(w(2, 2, 1))
	// order: 2,10,1 — tail 1 dirty, window 1 stops there.
	res = c2.Access(w(3, 3, 1))
	ev := res.Evictions[0]
	if ev.CleanDrop || ev.LPNs[0] != 1 {
		t.Fatalf("expected dirty flush of 1, got %+v", ev)
	}
}

func TestCFLRUWriteHitDirtiesCleanPage(t *testing.T) {
	c := NewCFLRU(4)
	c.Access(r(0, 5, 1))
	if c.Dirty(5) {
		t.Fatal("read-inserted page should be clean")
	}
	res := c.Access(w(1, 5, 1))
	if res.Hits != 1 {
		t.Fatalf("write on cached clean page should hit: %+v", res)
	}
	if !c.Dirty(5) {
		t.Fatal("write hit did not dirty the page")
	}
}

func TestCFLRUWriteOnlyVariantSkipsReadInsert(t *testing.T) {
	c := NewCFLRUWriteOnly(4)
	res := c.Access(r(0, 5, 2))
	if len(res.ReadMisses) != 2 || c.Len() != 0 {
		t.Fatalf("write-only CFLRU inserted reads: %+v len=%d", res, c.Len())
	}
}

func TestCFLRUReadInsertCanEvict(t *testing.T) {
	c := NewCFLRUWindow(2, 2, true)
	c.Access(w(0, 1, 1))
	c.Access(w(1, 2, 1))
	res := c.Access(r(2, 3, 1))
	if len(res.Evictions) != 1 {
		t.Fatalf("read insert did not evict: %+v", res)
	}
	if !c.Contains(3) {
		t.Fatal("read-missed page not inserted")
	}
}

func TestCFLRUAllDirtyFallsBackToLRU(t *testing.T) {
	c := NewCFLRU(2)
	c.Access(w(0, 1, 1))
	c.Access(w(1, 2, 1))
	res := c.Access(w(2, 3, 1))
	ev := res.Evictions[0]
	if ev.CleanDrop || ev.LPNs[0] != 1 {
		t.Fatalf("expected dirty LRU flush of 1, got %+v", ev)
	}
}

func TestCFLRUWindowClamping(t *testing.T) {
	c := NewCFLRUWindow(4, 100, true)
	if c.window != 4 {
		t.Fatalf("window not clamped: %d", c.window)
	}
	c = NewCFLRUWindow(4, 0, true)
	if c.window != 1 {
		t.Fatalf("window floor wrong: %d", c.window)
	}
}

// scanCFLRU is CFLRU as the paper states it: one LRU slice (index 0 =
// most recent) whose last window entries are scanned from the tail for a
// clean page before the dirty tail is flushed.
type scanCFLRU struct {
	capacity, window int
	insertReads      bool
	lpns             []int64
	dirty            []bool
}

func (m *scanCFLRU) access(req Request) (evicted []int64, clean []bool) {
	for lpn := req.LPN; lpn < req.LPN+int64(req.Pages); lpn++ {
		at := -1
		for i, p := range m.lpns {
			if p == lpn {
				at = i
			}
		}
		dirty := req.Write
		if at >= 0 {
			dirty = dirty || m.dirty[at]
			m.lpns = append(m.lpns[:at], m.lpns[at+1:]...)
			m.dirty = append(m.dirty[:at], m.dirty[at+1:]...)
		} else if !req.Write && !m.insertReads {
			continue
		} else {
			for len(m.lpns) >= m.capacity {
				v := len(m.lpns) - 1
				for i := v; i >= 0 && i >= len(m.lpns)-m.window; i-- {
					if !m.dirty[i] {
						v = i
						break
					}
				}
				evicted, clean = append(evicted, m.lpns[v]), append(clean, !m.dirty[v])
				m.lpns = append(m.lpns[:v], m.lpns[v+1:]...)
				m.dirty = append(m.dirty[:v], m.dirty[v+1:]...)
			}
		}
		m.lpns = append([]int64{lpn}, m.lpns...)
		m.dirty = append([]bool{dirty}, m.dirty...)
	}
	return evicted, clean
}

// TestCFLRUMatchesWindowScan diffs CFLRU's O(1) victim choice against the
// literal window scan across windows from one page to the whole buffer.
func TestCFLRUMatchesWindowScan(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(48)
		window := 1 + rng.Intn(capacity)
		insertReads := seed%4 != 0
		c := NewCFLRUWindow(capacity, window, insertReads)
		m := &scanCFLRU{capacity: capacity, window: window, insertReads: insertReads}
		for i := 0; i < 600; i++ {
			req := Request{Time: int64(i), Write: rng.Intn(2) == 0, LPN: rng.Int63n(96), Pages: 1 + rng.Intn(6)}
			res := c.Access(req)
			evicted, clean := m.access(req)
			if len(res.Evictions) != len(evicted) {
				t.Fatalf("seed %d req %d: %d evictions, scan made %d", seed, i, len(res.Evictions), len(evicted))
			}
			for k, ev := range res.Evictions {
				if ev.LPNs[0] != evicted[k] || ev.CleanDrop != clean[k] {
					t.Fatalf("seed %d req %d: evicted %d (clean %v), scan chose %d (clean %v)",
						seed, i, ev.LPNs[0], ev.CleanDrop, evicted[k], clean[k])
				}
			}
			dirty := 0
			for _, d := range m.dirty {
				if d {
					dirty++
				}
			}
			if c.Len() != len(m.lpns) || c.DirtyPages() != dirty {
				t.Fatalf("seed %d req %d: %d pages (%d dirty), scan holds %d (%d dirty)",
					seed, i, c.Len(), c.DirtyPages(), len(m.lpns), dirty)
			}
		}
	}
}
