package cache

import "repro/internal/vindex"

// fabGroup clusters the buffered pages that fall into one logical flash
// block.
type fabGroup struct {
	blockID int64
	pages   pageSet // lpns present
	// seq is the group's creation sequence number: FAB's victim rule
	// breaks size ties in favor of the oldest group, which the victim
	// index encodes as ascending seq.
	seq uint64
	// hd is the group's live entry in the victim index.
	hd vindex.Handle[*fabGroup]
}

// FAB is the flash-aware buffer of Jo et al. (TCE'06): pages are grouped by
// the flash block they belong to; when the buffer fills, the group holding
// the most pages is flushed in its entirety. Recency is ignored — the
// weakness the paper's related work points out. Groups are flushed
// block-bound, since FAB's goal is to turn the buffer contents into full
// sequential block writes.
//
// Victim selection is indexed: every group keeps a vindex heap entry keyed
// (-size, creation seq), so the fullest-oldest group pops in O(log n)
// instead of the paper-era full walk. The walk itself is the reference
// model oracle.FAB, which ssdcheck diffs this policy against.
type FAB struct {
	capacity      int
	pagesPerBlock int64
	pageCount     int
	groups        PageIndex[fabGroup] // by block number
	buf           ResultBuffers
	free          []*fabGroup // recycled groups

	heap     vindex.Heap[*fabGroup]
	groupSeq uint64
	scanCost int64
}

// NewFAB returns a FAB buffer grouping pages into logical blocks of
// pagesPerBlock (64 in the paper's Table 1 geometry).
func NewFAB(capacityPages int, pagesPerBlock int) *FAB {
	ValidateCapacity(capacityPages)
	if pagesPerBlock < 1 {
		panic("cache: FAB pagesPerBlock must be >= 1")
	}
	return &FAB{
		capacity:      capacityPages,
		pagesPerBlock: int64(pagesPerBlock),
	}
}

var (
	_ Policy             = (*FAB)(nil)
	_ IdleEvictor        = (*FAB)(nil)
	_ VictimScanReporter = (*FAB)(nil)
)

// Name implements Policy.
func (c *FAB) Name() string { return "FAB" }

// Len implements Policy.
func (c *FAB) Len() int { return c.pageCount }

// CapacityPages implements Policy.
func (c *FAB) CapacityPages() int { return c.capacity }

// NodeBytes implements Policy: FAB keeps one block-granularity node, same
// accounting as the paper gives BPLRU.
func (c *FAB) NodeBytes() int { return 24 }

// NodeCount implements Policy: one node per group.
func (c *FAB) NodeCount() int { return c.groups.Len() }

// VictimScanCost implements VictimScanReporter.
func (c *FAB) VictimScanCost() int64 { return c.scanCost }

// Access implements Policy.
func (c *FAB) Access(req Request) Result {
	CheckRequest(req)
	c.buf.Reset()
	var res Result
	lpn := req.LPN
	for i := 0; i < req.Pages; i++ {
		blockID := lpn / c.pagesPerBlock
		g := c.groups.Get(blockID)
		if g != nil && g.pages.has(lpn) {
			res.Hits++
		} else {
			res.Misses++
			if req.Write {
				for c.pageCount >= c.capacity {
					c.buf.Evictions = append(c.buf.Evictions, c.evictLargest())
				}
				// The group may have been evicted while making room.
				if g = c.groups.Get(blockID); g == nil {
					g = c.newGroup(blockID)
					c.groups.Put(blockID, g)
				}
				g.pages.add(lpn)
				c.pageCount++
				res.Inserted++
				c.indexGroup(g)
			} else {
				c.buf.Reads = append(c.buf.Reads, lpn)
			}
		}
		lpn++
	}
	c.buf.Finish(&res)
	return res
}

// newGroup takes a group from the free stack, or allocates one.
func (c *FAB) newGroup(blockID int64) *fabGroup {
	var g *fabGroup
	if len(c.free) > 0 {
		g = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	} else {
		g = &fabGroup{}
	}
	g.blockID = blockID
	g.pages.reset(blockID*c.pagesPerBlock, c.pagesPerBlock)
	c.groupSeq++
	g.seq = c.groupSeq
	g.hd = vindex.Handle[*fabGroup]{}
	return g
}

// indexGroup re-keys the group's victim-index entry after its size
// changed. Score is the negated page count: the heap is a min-heap, FAB
// evicts the largest group, and ties fall to the oldest (smallest seq).
func (c *FAB) indexGroup(g *fabGroup) {
	g.hd = c.heap.Update(g.hd, -int64(g.pages.len()), g.seq, g)
}

// evictLargest flushes the group with the most pages, breaking ties in
// favor of the oldest group.
func (c *FAB) evictLargest() Eviction {
	before := c.heap.Cost()
	g, ok := c.heap.PopMin()
	c.scanCost += c.heap.Cost() - before
	if !ok {
		panic("cache: FAB evict on empty buffer")
	}
	mark := c.buf.Mark()
	c.buf.LPNs = g.pages.appendLPNs(c.buf.LPNs)
	lpns := c.buf.Carve(mark)
	c.groups.Delete(g.blockID)
	c.pageCount -= len(lpns)
	c.free = append(c.free, g)
	return Eviction{LPNs: lpns, BlockBound: true}
}

// EvictIdle implements cache.IdleEvictor: during idle time (or a periodic
// destage tick) the fullest group is flushed — FAB's own victim rule — as
// long as the buffer is more than half full.
func (c *FAB) EvictIdle(now int64) (Eviction, bool) {
	if c.pageCount <= c.capacity/2 {
		return Eviction{}, false
	}
	c.buf.Reset()
	return c.evictLargest(), true
}
