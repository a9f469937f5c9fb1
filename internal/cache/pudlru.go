package cache

import "repro/internal/vindex"

// pudBlock is one logical-block node of PUD-LRU with its update history.
// updateSeq is the global sequence number of the block's most recent
// update: the victim rule breaks PUD ties toward the least recently
// updated block, which is exactly the minimum updateSeq.
type pudBlock struct {
	blockID    int64
	pages      pageSet
	updates    int64 // writes absorbed since insertion
	insertTime int64
	lastUpdate int64
	updateSeq  uint64
	hdSum      vindex.Handle[*pudBlock]
	hdSeq      vindex.Handle[*pudBlock]
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
	bySum vindex.Heap[*pudBlock]
	bySeq vindex.Heap[*pudBlock]
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
// instead of walking every block. The walk in recency order is the
// reference model oracle.PUDLRU, which ssdcheck diffs this policy against.
type PUDLRU struct {
	capacity      int
	pagesPerBlock int64
	pageCount     int
	blocks        PageIndex[pudBlock] // by block number
	buf           ResultBuffers
	free          []*pudBlock // recycled blocks

	buckets    map[int64]*pudBucket // update count -> bucket index
	freeBucket *pudBucket
	seq        uint64
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

// NodeCount implements Policy: one node per block.
func (c *PUDLRU) NodeCount() int { return c.blocks.Len() }

// VictimScanCost implements VictimScanReporter.
func (c *PUDLRU) VictimScanCost() int64 { return c.scanCost }

// Access implements Policy.
func (c *PUDLRU) Access(req Request) Result {
	CheckRequest(req)
	c.buf.Reset()
	var res Result
	lpn := req.LPN
	for i := 0; i < req.Pages; i++ {
		blockID := lpn / c.pagesPerBlock
		b := c.blocks.Get(blockID)
		if b != nil && b.pages.has(lpn) {
			res.Hits++
			if req.Write {
				c.noteUpdate(b, req.Time)
			}
		} else {
			res.Misses++
			if req.Write {
				for c.pageCount >= c.capacity {
					c.buf.Evictions = append(c.buf.Evictions, c.evict(req.Time))
				}
				if b = c.blocks.Get(blockID); b == nil {
					b = c.newBlock(blockID, req.Time)
					c.blocks.Put(blockID, b)
				}
				b.pages.add(lpn)
				c.pageCount++
				res.Inserted++
				c.noteUpdate(b, req.Time)
			} else {
				c.buf.Reads = append(c.buf.Reads, lpn)
			}
		}
		lpn++
	}
	c.buf.Finish(&res)
	return res
}

// newBlock takes a block from the free stack, or allocates one.
func (c *PUDLRU) newBlock(blockID, now int64) *pudBlock {
	var b *pudBlock
	if len(c.free) > 0 {
		b = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	} else {
		b = &pudBlock{}
	}
	b.blockID = blockID
	b.pages.reset(blockID*c.pagesPerBlock, c.pagesPerBlock)
	b.updates = 0
	b.insertTime = now
	b.lastUpdate = now
	b.hdSum = vindex.Handle[*pudBlock]{}
	b.hdSeq = vindex.Handle[*pudBlock]{}
	return b
}

// noteUpdate records one write absorbed by the block and re-indexes it.
func (c *PUDLRU) noteUpdate(b *pudBlock, now int64) {
	oldUpdates := b.updates
	b.updates++
	b.lastUpdate = now
	c.seq++
	b.updateSeq = c.seq
	if oldUpdates > 0 {
		c.unindexBlock(b, oldUpdates)
	}
	c.indexBlock(b)
}

// indexBlock enters a block into the bucket for its current update count.
func (c *PUDLRU) indexBlock(b *pudBlock) {
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
	b.hdSum = bk.bySum.Push(b.insertTime+b.lastUpdate, b.updateSeq, b)
	b.hdSeq = bk.bySeq.Push(int64(b.updateSeq), 0, b)
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
// updated per unit time); ties go to the least recently updated block.
func (c *PUDLRU) evict(now int64) Eviction {
	b := c.pickIndexed(now)
	if b == nil {
		panic("cache: PUD-LRU evict on empty buffer")
	}
	c.unindexBlock(b, b.updates)
	c.blocks.Delete(b.blockID)
	mark := c.buf.Mark()
	c.buf.LPNs = b.pages.appendLPNs(c.buf.LPNs)
	lpns := c.buf.Carve(mark)
	c.pageCount -= len(lpns)
	c.free = append(c.free, b)
	return Eviction{LPNs: lpns, BlockBound: true}
}

// pickIndexed selects the max-PUD block by comparing one representative
// per populated bucket. Within a bucket the representative is the
// minimum-(sum, updateSeq) block — the PUD maximum with the least
// recently updated tie-break — unless even that block's span clamps to 1, in which case
// every block in the bucket ties at PUD 1/u and the bucket-wide minimum
// updateSeq takes over. Bucket iteration order is irrelevant: (PUD,
// updateSeq) is a strict total order because update sequence numbers are
// unique.
func (c *PUDLRU) pickIndexed(now int64) *pudBlock {
	var victim *pudBlock
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
		if rep.insertTime+rep.lastUpdate >= 2*now-1 {
			before = bk.bySeq.Cost()
			if m, ok2 := bk.bySeq.PeekMin(); ok2 {
				rep = m
			}
			c.scanCost += bk.bySeq.Cost() - before
		}
		p := rep.pud(now)
		if victim == nil || p > victimPUD || (p == victimPUD && rep.updateSeq < victimSeq) {
			victim, victimPUD, victimSeq = rep, p, rep.updateSeq
		}
	}
	return victim
}

// Contains reports whether a page is buffered (tests).
func (c *PUDLRU) Contains(lpn int64) bool {
	b := c.blocks.Get(lpn / c.pagesPerBlock)
	return b != nil && b.pages.has(lpn)
}
