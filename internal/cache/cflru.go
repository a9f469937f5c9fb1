package cache

import "repro/internal/list"

// cflruEntry is one cached page with its dirty state. stamp is the page's
// position in the overall LRU order: a global counter taken each time the
// page moves to the head, so older pages carry smaller stamps.
type cflruEntry struct {
	lpn   int64
	dirty bool
	stamp uint64
}

// CFLRU is the clean-first LRU of Park et al. (CASES'06): an LRU list whose
// tail portion (the "clean-first region") is scanned for a clean page
// before any dirty page is evicted, because dropping a clean page costs no
// flash program. Unlike the pure write-buffer policies, CFLRU caches read
// data too (clean pages are where its advantage comes from); construct with
// NewCFLRUWriteOnly to disable that and make it directly comparable to the
// other baselines.
//
// The LRU list is kept as two, one per dirty state, whose merge by stamp
// is the paper's single list. The scan's answer is the oldest clean page
// when fewer than window dirty pages are older than it, and the overall
// tail (the oldest dirty page) otherwise. behind counts those older dirty
// pages and edge is the youngest of them; both are maintained as pages
// move, so an eviction costs O(1) amortized instead of a window walk.
type CFLRU struct {
	capacity    int
	window      int // clean-first region length in pages
	insertReads bool
	pages       PageIndex[list.Node[cflruEntry]]
	clean       list.List[cflruEntry]
	dirty       list.List[cflruEntry]
	stamp       uint64
	// edge is the youngest dirty page older than the oldest clean page
	// (every dirty page when none is clean), nil if there is none; behind
	// counts the dirty pages from the dirty tail up to edge.
	edge   *list.Node[cflruEntry]
	behind int
	buf    ResultBuffers
	free   []*list.Node[cflruEntry] // recycled nodes; steady state allocates none
}

// NewCFLRU returns a CFLRU buffer whose clean-first region is half the
// capacity (the original paper's well-performing middle setting), caching
// both read and write data.
func NewCFLRU(capacityPages int) *CFLRU {
	return NewCFLRUWindow(capacityPages, capacityPages/2, true)
}

// NewCFLRUWriteOnly returns a CFLRU variant that, like the rest of the
// evaluation grid, buffers only write data.
func NewCFLRUWriteOnly(capacityPages int) *CFLRU {
	return NewCFLRUWindow(capacityPages, capacityPages/2, false)
}

// NewCFLRUWindow returns a CFLRU buffer with an explicit clean-first window
// length in pages.
func NewCFLRUWindow(capacityPages, window int, insertReads bool) *CFLRU {
	ValidateCapacity(capacityPages)
	if window < 1 {
		window = 1
	}
	if window > capacityPages {
		window = capacityPages
	}
	return &CFLRU{
		capacity:    capacityPages,
		window:      window,
		insertReads: insertReads,
	}
}

// Name implements Policy.
func (c *CFLRU) Name() string { return "CFLRU" }

// Len implements Policy.
func (c *CFLRU) Len() int { return c.pages.Len() }

// CapacityPages implements Policy.
func (c *CFLRU) CapacityPages() int { return c.capacity }

// NodeBytes implements Policy: one byte beyond the LRU node for the dirty
// flag.
func (c *CFLRU) NodeBytes() int { return 13 }

// NodeCount implements Policy.
func (c *CFLRU) NodeCount() int { return c.pages.Len() }

// Access implements Policy.
func (c *CFLRU) Access(req Request) Result {
	CheckRequest(req)
	c.buf.Reset()
	var res Result
	lpn := req.LPN
	for i := 0; i < req.Pages; i++ {
		if n := c.pages.Get(lpn); n != nil {
			res.Hits++
			// A hit moves the page to the head; a write dirties it.
			c.unlink(n)
			c.pushHead(n, n.Value.dirty || req.Write)
		} else {
			res.Misses++
			switch {
			case req.Write:
				c.insert(lpn, true)
				res.Inserted++
			case c.insertReads:
				c.buf.Reads = append(c.buf.Reads, lpn)
				c.insert(lpn, false)
				res.Inserted++
			default:
				c.buf.Reads = append(c.buf.Reads, lpn)
			}
		}
		lpn++
	}
	c.buf.Finish(&res)
	return res
}

// insert makes room, then buffers a page on a recycled node.
func (c *CFLRU) insert(lpn int64, dirty bool) {
	for c.pages.Len() >= c.capacity {
		c.buf.Evictions = append(c.buf.Evictions, c.evictOne())
	}
	var n *list.Node[cflruEntry]
	if k := len(c.free); k > 0 {
		n, c.free = c.free[k-1], c.free[:k-1]
	} else {
		n = &list.Node[cflruEntry]{}
	}
	n.Value.lpn = lpn
	c.pushHead(n, dirty)
	c.pages.Put(lpn, n)
}

// pushHead makes a detached page the most recently used one.
func (c *CFLRU) pushHead(n *list.Node[cflruEntry], dirty bool) {
	c.stamp++
	n.Value.stamp = c.stamp
	n.Value.dirty = dirty
	if dirty {
		c.dirty.PushHead(n)
	} else {
		c.clean.PushHead(n)
	}
	c.advanceEdge()
}

// unlink detaches a page from its list, keeping edge and behind exact.
func (c *CFLRU) unlink(n *list.Node[cflruEntry]) {
	if !n.Value.dirty {
		c.clean.Remove(n)
		c.advanceEdge() // the oldest clean page may have changed
		return
	}
	if c.edge != nil && n.Value.stamp <= c.edge.Value.stamp {
		c.behind--
		if n == c.edge {
			c.edge = n.Next()
		}
	}
	c.dirty.Remove(n)
}

// advanceEdge moves edge toward the head over every dirty page older than
// the oldest clean page. Each dirty page is passed at most once between
// two moves of its own, so the walk is O(1) amortized.
func (c *CFLRU) advanceEdge() {
	next := c.dirty.Tail()
	if c.edge != nil {
		next = c.edge.Prev()
	}
	oldestClean := c.clean.Tail()
	for next != nil && (oldestClean == nil || next.Value.stamp < oldestClean.Value.stamp) {
		c.edge = next
		c.behind++
		next = next.Prev()
	}
}

// evictOne drops the least recently used clean page if it lies within the
// clean-first window (fewer than window dirty pages are older), and
// otherwise flushes the LRU tail, which is then dirty.
func (c *CFLRU) evictOne() Eviction {
	victim := c.dirty.Tail()
	if c.clean.Len() > 0 && c.behind < c.window {
		victim = c.clean.Tail()
	}
	if victim == nil {
		panic("cache: CFLRU evict on empty list")
	}
	c.unlink(victim)
	c.pages.Delete(victim.Value.lpn)
	c.free = append(c.free, victim)
	mark := c.buf.Mark()
	c.buf.LPNs = append(c.buf.LPNs, victim.Value.lpn)
	return Eviction{LPNs: c.buf.Carve(mark), CleanDrop: !victim.Value.dirty}
}

// DirtyPages implements cache.DirtyPager: CFLRU is the one baseline that
// buffers clean read data, so its crash loss is smaller than Len().
func (c *CFLRU) DirtyPages() int { return c.dirty.Len() }

// Dirty reports whether a buffered page is dirty (tests).
func (c *CFLRU) Dirty(lpn int64) bool {
	n := c.pages.Get(lpn)
	return n != nil && n.Value.dirty
}

// Contains reports whether a page is buffered (tests).
func (c *CFLRU) Contains(lpn int64) bool { return c.pages.Get(lpn) != nil }
