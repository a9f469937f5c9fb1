package cache

import (
	"repro/internal/list"
	"repro/internal/vindex"
)

// pudBlock is one logical-block node of PUD-LRU with its update history.
// updateSeq is the global sequence number of the block's most recent
// update: the victim rule breaks PUD ties toward the least recently
// updated block (the recency-list tail side), which is exactly the
// minimum updateSeq.
type pudBlock struct {
	blockID    int64
	pages      pageSet
	updates    int64 // writes absorbed since insertion
	insertTime int64
	lastUpdate int64
	updateSeq  uint64
	hdSum      vindex.Handle[*list.Node[*pudBlock]]
	hdSeq      vindex.Handle[*list.Node[*pudBlock]]
}

// pudBucket indexes the blocks sharing one update count u. PUD at time
// now is span/u with span = clamp(2·now − (insertTime+lastUpdate), ≥1), a
// kinetic score: it changes every tick, but within a fixed u the ORDER of
// blocks never changes — maximizing PUD is minimizing the static sum
// insertTime+lastUpdate. So each bucket keeps its blocks in a heap keyed
// (sum asc, updateSeq asc) whose minimum is the bucket's PUD maximum, and
// the per-eviction work is one peek per populated bucket instead of a
// full scan.
//
// The one wrinkle is the clamp: when even the bucket's minimum-sum block
// has span ≤ 1 (sum ≥ 2·now − 1), every block in the bucket collapses to
// PUD = 1/u and the correct representative is the bucket-wide minimum
// updateSeq — a different block in general than the minimum-sum one. The
// second heap, keyed by updateSeq alone, answers that case.
type pudBucket struct {
	bySum vindex.Heap[*list.Node[*pudBlock]]
	bySeq vindex.Heap[*list.Node[*pudBlock]]
	live  int
	next  *pudBucket // pool link
}

// PUDLRU approximates the erase-efficient write buffer of Hu et al.
// (MASCOTS'10), which the paper's related work cites: cached pages are
// clustered into logical blocks, and the buffer is split into a
// frequently-updated and an infrequently-updated partition by each block's
// Predicted average Update Distance (PUD — mean time between updates).
// Eviction always takes the infrequent block with the largest PUD and
// flushes it whole (block-bound, like BPLRU, to minimize erases on the
// log-block FTLs it targeted).
//
// This implementation recomputes the partition lazily at eviction time
// instead of on a timer: blocks whose PUD is above the current population
// median are "infrequent". That keeps the policy a pure state machine
// while preserving the selection behavior the original derives from its
// periodic re-partitioning.
//
// Victim selection is indexed per update count (see pudBucket): eviction
// compares one representative per populated bucket, O(buckets + log n),
// instead of walking every block. The full recency-order walk survives as
// the linear reference mode (LinearScanSelector).
type PUDLRU struct {
	capacity      int
	pagesPerBlock int64
	pageCount     int
	blocks        PageIndex[list.Node[*pudBlock]] // by block number
	order         list.List[*pudBlock]            // recency order for tie-breaking
	buf           ResultBuffers
	free          []*list.Node[*pudBlock] // recycled block nodes

	buckets    map[int64]*pudBucket // update count -> bucket index
	freeBucket *pudBucket
	seq        uint64
	linear     bool
	scanCost   int64
}

// NewPUDLRU returns a PUD-LRU buffer with logical blocks of pagesPerBlock
// pages.
func NewPUDLRU(capacityPages, pagesPerBlock int) *PUDLRU {
	ValidateCapacity(capacityPages)
	if pagesPerBlock < 1 {
		panic("cache: PUD-LRU pagesPerBlock must be >= 1")
	}
	return &PUDLRU{
		capacity:      capacityPages,
		pagesPerBlock: int64(pagesPerBlock),
		buckets:       make(map[int64]*pudBucket),
	}
}

var (
	_ Policy             = (*PUDLRU)(nil)
	_ VictimScanReporter = (*PUDLRU)(nil)
	_ LinearScanSelector = (*PUDLRU)(nil)
)

// Name implements Policy.
func (c *PUDLRU) Name() string { return "PUD-LRU" }

// Len implements Policy.
func (c *PUDLRU) Len() int { return c.pageCount }

// CapacityPages implements Policy.
func (c *PUDLRU) CapacityPages() int { return c.capacity }

// NodeBytes implements Policy: a block node plus two timestamps and a
// counter.
func (c *PUDLRU) NodeBytes() int { return 32 }

// NodeCount implements Policy.
func (c *PUDLRU) NodeCount() int { return c.order.Len() }

// VictimScanCost implements VictimScanReporter.
func (c *PUDLRU) VictimScanCost() int64 { return c.scanCost }

// SetLinearVictimScan implements LinearScanSelector.
func (c *PUDLRU) SetLinearVictimScan(enable bool) {
	if c.pageCount > 0 {
		panic("cache: PUD-LRU victim-scan mode must be set before use")
	}
	c.linear = enable
}

// Access implements Policy.
func (c *PUDLRU) Access(req Request) Result {
	CheckRequest(req)
	c.buf.Reset()
	var res Result
	lpn := req.LPN
	for i := 0; i < req.Pages; i++ {
		blockID := lpn / c.pagesPerBlock
		n := c.blocks.Get(blockID)
		if n != nil && n.Value.pages.has(lpn) {
			res.Hits++
			if req.Write {
				c.noteUpdate(n, req.Time)
			}
		} else {
			res.Misses++
			if req.Write {
				for c.pageCount >= c.capacity {
					c.buf.Evictions = append(c.buf.Evictions, c.evict(req.Time))
				}
				if n = c.blocks.Get(blockID); n == nil {
					n = c.newBlock(blockID, req.Time)
					c.order.PushHead(n)
					c.blocks.Put(blockID, n)
				}
				n.Value.pages.add(lpn)
				c.pageCount++
				res.Inserted++
				c.noteUpdate(n, req.Time)
			} else {
				c.buf.Reads = append(c.buf.Reads, lpn)
			}
		}
		lpn++
	}
	c.buf.Finish(&res)
	return res
}

// newBlock takes a block node from the free stack, or allocates one.
func (c *PUDLRU) newBlock(blockID, now int64) *list.Node[*pudBlock] {
	var n *list.Node[*pudBlock]
	if len(c.free) > 0 {
		n = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	} else {
		n = &list.Node[*pudBlock]{Value: &pudBlock{}}
	}
	b := n.Value
	b.blockID = blockID
	b.pages.reset(blockID*c.pagesPerBlock, c.pagesPerBlock)
	b.updates = 0
	b.insertTime = now
	b.lastUpdate = now
	b.hdSum = vindex.Handle[*list.Node[*pudBlock]]{}
	b.hdSeq = vindex.Handle[*list.Node[*pudBlock]]{}
	return n
}

func (c *PUDLRU) noteUpdate(n *list.Node[*pudBlock], now int64) {
	b := n.Value
	oldUpdates := b.updates
	b.updates++
	b.lastUpdate = now
	c.order.MoveToHead(n)
	if c.linear {
		return
	}
	c.seq++
	b.updateSeq = c.seq
	if oldUpdates > 0 {
		c.unindexBlock(b, oldUpdates)
	}
	c.indexBlock(n)
}

// indexBlock enters a block into the bucket for its current update count.
func (c *PUDLRU) indexBlock(n *list.Node[*pudBlock]) {
	b := n.Value
	bk, ok := c.buckets[b.updates]
	if !ok {
		bk = c.freeBucket
		if bk != nil {
			c.freeBucket = bk.next
			bk.next = nil
		} else {
			bk = &pudBucket{}
		}
		c.buckets[b.updates] = bk
	}
	b.hdSum = bk.bySum.Push(b.insertTime+b.lastUpdate, b.updateSeq, n)
	b.hdSeq = bk.bySeq.Push(int64(b.updateSeq), 0, n)
	bk.live++
}

// unindexBlock withdraws a block's entries from the bucket holding its
// old update count, releasing the bucket when it empties.
func (c *PUDLRU) unindexBlock(b *pudBlock, updates int64) {
	bk := c.buckets[updates]
	bk.bySum.Invalidate(b.hdSum)
	bk.bySeq.Invalidate(b.hdSeq)
	bk.live--
	if bk.live == 0 {
		bk.bySum.Reset()
		bk.bySeq.Reset()
		delete(c.buckets, updates)
		bk.next = c.freeBucket
		c.freeBucket = bk
	}
}

// pud returns the block's predicted average update distance at time now:
// the mean inter-update gap, with the time since the last update folded in
// so stale blocks age upward.
func (b *pudBlock) pud(now int64) float64 {
	span := now - b.insertTime + (now - b.lastUpdate)
	if span < 1 {
		span = 1
	}
	return float64(span) / float64(b.updates)
}

// evict flushes the block with the largest PUD (the least frequently
// updated per unit time); ties go to the LRU tail side.
func (c *PUDLRU) evict(now int64) Eviction {
	var victim *list.Node[*pudBlock]
	if c.linear {
		var victimPUD float64
		for n := c.order.Tail(); n != nil; n = n.Prev() {
			c.scanCost++
			if p := n.Value.pud(now); victim == nil || p > victimPUD {
				victim, victimPUD = n, p
			}
		}
	} else {
		victim = c.pickIndexed(now)
	}
	if victim == nil {
		panic("cache: PUD-LRU evict on empty buffer")
	}
	b := victim.Value
	if !c.linear {
		c.unindexBlock(b, b.updates)
	}
	c.order.Remove(victim)
	c.blocks.Delete(b.blockID)
	mark := c.buf.Mark()
	c.buf.LPNs = b.pages.appendLPNs(c.buf.LPNs)
	lpns := c.buf.Carve(mark)
	c.pageCount -= len(lpns)
	c.free = append(c.free, victim)
	return Eviction{LPNs: lpns, BlockBound: true}
}

// pickIndexed selects the max-PUD block by comparing one representative
// per populated bucket. Within a bucket the representative is the
// minimum-(sum, updateSeq) block — the PUD maximum with the tail-most
// tie-break — unless even that block's span clamps to 1, in which case
// every block in the bucket ties at PUD 1/u and the bucket-wide minimum
// updateSeq takes over. Bucket iteration order is irrelevant: (PUD,
// updateSeq) is a strict total order because update sequence numbers are
// unique.
func (c *PUDLRU) pickIndexed(now int64) *list.Node[*pudBlock] {
	var victim *list.Node[*pudBlock]
	var victimPUD float64
	var victimSeq uint64
	for _, bk := range c.buckets {
		c.scanCost++
		before := bk.bySum.Cost()
		rep, ok := bk.bySum.PeekMin()
		c.scanCost += bk.bySum.Cost() - before
		if !ok {
			continue
		}
		if rep.Value.insertTime+rep.Value.lastUpdate >= 2*now-1 {
			before = bk.bySeq.Cost()
			if m, ok2 := bk.bySeq.PeekMin(); ok2 {
				rep = m
			}
			c.scanCost += bk.bySeq.Cost() - before
		}
		p := rep.Value.pud(now)
		if victim == nil || p > victimPUD || (p == victimPUD && rep.Value.updateSeq < victimSeq) {
			victim, victimPUD, victimSeq = rep, p, rep.Value.updateSeq
		}
	}
	return victim
}

// Contains reports whether a page is buffered (tests).
func (c *PUDLRU) Contains(lpn int64) bool {
	n := c.blocks.Get(lpn / c.pagesPerBlock)
	return n != nil && n.Value.pages.has(lpn)
}
