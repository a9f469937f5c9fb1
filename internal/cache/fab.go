package cache

import (
	"repro/internal/list"
	"repro/internal/vindex"
)

// fabGroup clusters the buffered pages that fall into one logical flash
// block.
type fabGroup struct {
	blockID int64
	pages   pageSet // lpns present
	// seq is the group's creation sequence number: FAB's victim rule
	// breaks size ties in favor of the oldest group, which the victim
	// index encodes as ascending seq.
	seq uint64
	// hd is the group's live entry in the victim index (indexed mode).
	hd vindex.Handle[*list.Node[*fabGroup]]
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
// instead of the paper-era full walk — the walk survives as the linear
// reference mode (LinearScanSelector) for differential validation and the
// capacity benchmarks.
type FAB struct {
	capacity      int
	pagesPerBlock int64
	pageCount     int
	groups        PageIndex[list.Node[*fabGroup]] // by block number
	order         list.List[*fabGroup]            // insertion order; linear mode scans it
	buf           ResultBuffers
	free          []*list.Node[*fabGroup] // recycled group nodes

	heap     vindex.Heap[*list.Node[*fabGroup]]
	groupSeq uint64
	linear   bool
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
	_ LinearScanSelector = (*FAB)(nil)
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

// NodeCount implements Policy.
func (c *FAB) NodeCount() int { return c.order.Len() }

// VictimScanCost implements VictimScanReporter.
func (c *FAB) VictimScanCost() int64 { return c.scanCost }

// SetLinearVictimScan implements LinearScanSelector.
func (c *FAB) SetLinearVictimScan(enable bool) {
	if c.pageCount > 0 {
		panic("cache: FAB victim-scan mode must be set before use")
	}
	c.linear = enable
}

// Access implements Policy.
func (c *FAB) Access(req Request) Result {
	CheckRequest(req)
	c.buf.Reset()
	var res Result
	lpn := req.LPN
	for i := 0; i < req.Pages; i++ {
		blockID := lpn / c.pagesPerBlock
		g := c.groups.Get(blockID)
		if g != nil && g.Value.pages.has(lpn) {
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
					c.order.PushHead(g)
					c.groups.Put(blockID, g)
				}
				g.Value.pages.add(lpn)
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

// newGroup takes a group node from the free stack, or allocates one.
func (c *FAB) newGroup(blockID int64) *list.Node[*fabGroup] {
	var g *list.Node[*fabGroup]
	if len(c.free) > 0 {
		g = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	} else {
		g = &list.Node[*fabGroup]{Value: &fabGroup{}}
	}
	fg := g.Value
	fg.blockID = blockID
	fg.pages.reset(blockID*c.pagesPerBlock, c.pagesPerBlock)
	c.groupSeq++
	fg.seq = c.groupSeq
	fg.hd = vindex.Handle[*list.Node[*fabGroup]]{}
	return g
}

// indexGroup re-keys the group's victim-index entry after its size
// changed. Score is the negated page count: the heap is a min-heap, FAB
// evicts the largest group, and ties fall to the oldest (smallest seq).
func (c *FAB) indexGroup(g *list.Node[*fabGroup]) {
	if c.linear {
		return
	}
	fg := g.Value
	fg.hd = c.heap.Update(fg.hd, -int64(fg.pages.len()), fg.seq, g)
}

// evictLargest flushes the group with the most pages, breaking ties in
// favor of the oldest group (list tail side).
func (c *FAB) evictLargest() Eviction {
	var victim *list.Node[*fabGroup]
	if c.linear {
		best := 0
		for n := c.order.Tail(); n != nil; n = n.Prev() {
			c.scanCost++
			if l := n.Value.pages.len(); l > best {
				best, victim = l, n
			}
		}
	} else {
		before := c.heap.Cost()
		v, ok := c.heap.PopMin()
		c.scanCost += c.heap.Cost() - before
		if ok {
			victim = v
		}
	}
	if victim == nil {
		panic("cache: FAB evict on empty buffer")
	}
	g := victim.Value
	mark := c.buf.Mark()
	c.buf.LPNs = g.pages.appendLPNs(c.buf.LPNs)
	lpns := c.buf.Carve(mark)
	c.order.Remove(victim)
	c.groups.Delete(g.blockID)
	c.pageCount -= len(lpns)
	c.free = append(c.free, victim)
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
