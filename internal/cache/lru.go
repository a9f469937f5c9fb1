package cache

import "repro/internal/list"

// lruEntry is the payload of one page node in the LRU/FIFO lists.
type lruEntry struct {
	lpn int64
}

// LRU is the classic page-granularity least-recently-used write buffer: any
// page hit moves the page to the head; eviction flushes the single tail
// page. It is the paper's primary baseline.
type LRU struct {
	capacity  int
	pages     PageIndex[list.Node[lruEntry]]
	order     list.List[lruEntry]
	moveOnHit bool // false turns this into FIFO
	name      string
	buf       ResultBuffers
	free      []*list.Node[lruEntry] // recycled nodes; steady state allocates none
}

// NewLRU returns a page-level LRU buffer with the given capacity in pages.
func NewLRU(capacityPages int) *LRU {
	ValidateCapacity(capacityPages)
	return &LRU{
		capacity:  capacityPages,
		moveOnHit: true,
		name:      "LRU",
	}
}

// NewFIFO returns a page-level first-in-first-out buffer: hits do not
// reorder, eviction flushes the oldest inserted page.
func NewFIFO(capacityPages int) *LRU {
	l := NewLRU(capacityPages)
	l.moveOnHit = false
	l.name = "FIFO"
	return l
}

// Name implements Policy.
func (c *LRU) Name() string { return c.name }

// Len implements Policy.
func (c *LRU) Len() int { return c.pages.Len() }

// CapacityPages implements Policy.
func (c *LRU) CapacityPages() int { return c.capacity }

// NodeBytes implements Policy: the paper's Fig. 12 charges 12 bytes per
// page node for LRU-class lists.
func (c *LRU) NodeBytes() int { return 12 }

// NodeCount implements Policy.
func (c *LRU) NodeCount() int { return c.order.Len() }

// Access implements Policy, walking the request page by page exactly like
// the paper's Algorithm 1 main loop.
func (c *LRU) Access(req Request) Result {
	CheckRequest(req)
	c.buf.Reset()
	var res Result
	lpn := req.LPN
	for i := 0; i < req.Pages; i++ {
		if n := c.pages.Get(lpn); n != nil {
			res.Hits++
			if c.moveOnHit {
				c.order.MoveToHead(n)
			}
		} else {
			res.Misses++
			if req.Write {
				for c.pages.Len() >= c.capacity {
					c.buf.Evictions = append(c.buf.Evictions, c.evictOne())
				}
				n := c.newNode(lpn)
				c.order.PushHead(n)
				c.pages.Put(lpn, n)
				res.Inserted++
			} else {
				c.buf.Reads = append(c.buf.Reads, lpn)
			}
		}
		lpn++
	}
	c.buf.Finish(&res)
	return res
}

// newNode takes a node from the free stack, or allocates one.
func (c *LRU) newNode(lpn int64) *list.Node[lruEntry] {
	if len(c.free) > 0 {
		n := c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		n.Value.lpn = lpn
		return n
	}
	return &list.Node[lruEntry]{Value: lruEntry{lpn: lpn}}
}

// evictOne flushes the tail page and recycles its node.
func (c *LRU) evictOne() Eviction {
	n := c.order.PopTail()
	if n == nil {
		panic("cache: LRU evict on empty list")
	}
	c.pages.Delete(n.Value.lpn)
	mark := c.buf.Mark()
	c.buf.LPNs = append(c.buf.LPNs, n.Value.lpn)
	c.free = append(c.free, n)
	return Eviction{LPNs: c.buf.Carve(mark)}
}

// Contains reports whether a page is buffered (tests).
func (c *LRU) Contains(lpn int64) bool { return c.pages.Get(lpn) != nil }

// EvictIdle implements cache.IdleEvictor: during idle time the LRU tail
// page is flushed, as long as the buffer is more than half full.
func (c *LRU) EvictIdle(now int64) (Eviction, bool) {
	if c.pages.Len() <= c.capacity/2 {
		return Eviction{}, false
	}
	c.buf.Reset()
	return c.evictOne(), true
}
