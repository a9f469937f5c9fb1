package cache

import "repro/internal/list"

// bplruBlock is one logical-block node in BPLRU's block-level LRU list.
type bplruBlock struct {
	blockID int64
	pages   pageSet // buffered (dirty) lpns of this block
	// sequential tracks whether every insert so far continued an in-order
	// run from in-block page 0; used for LRU compensation.
	sequential bool
	nextSeq    int // next in-block index that keeps the run sequential
}

// BPLRU is the block-padding LRU of Kim & Ahn (FAST'08): the buffer is an
// LRU list of logical blocks; any write to a block moves the whole block to
// the head; eviction flushes the tail block onto a single physical block
// (block-bound — the trait that costs it channel parallelism in the paper's
// §4.2.2). Two refinements from the original are modeled:
//
//   - LRU compensation: a block written fully sequentially is moved to the
//     tail, since streaming writes are unlikely to be rewritten.
//   - Page padding: optionally, eviction reads the block's missing pages
//     from flash and programs the full block. The paper's Fig. 11 write
//     counts indicate its comparison ran without padding (BPLRU writes
//     fewer pages than LRU there), so padding defaults to off; see
//     NewBPLRUWithPadding and the ablation bench.
type BPLRU struct {
	capacity      int
	pagesPerBlock int64
	padding       bool
	pageCount     int
	blocks        PageIndex[list.Node[*bplruBlock]] // by block number
	order         list.List[*bplruBlock]            // head = most recently written
	buf           ResultBuffers
	free          []*list.Node[*bplruBlock] // recycled block nodes
}

// NewBPLRU returns a BPLRU buffer with logical blocks of pagesPerBlock
// pages and padding disabled.
func NewBPLRU(capacityPages, pagesPerBlock int) *BPLRU {
	ValidateCapacity(capacityPages)
	if pagesPerBlock < 1 {
		panic("cache: BPLRU pagesPerBlock must be >= 1")
	}
	return &BPLRU{
		capacity:      capacityPages,
		pagesPerBlock: int64(pagesPerBlock),
	}
}

// NewBPLRUWithPadding returns the original full-block-padding variant.
func NewBPLRUWithPadding(capacityPages, pagesPerBlock int) *BPLRU {
	b := NewBPLRU(capacityPages, pagesPerBlock)
	b.padding = true
	return b
}

// Name implements Policy.
func (c *BPLRU) Name() string { return "BPLRU" }

// Len implements Policy.
func (c *BPLRU) Len() int { return c.pageCount }

// CapacityPages implements Policy.
func (c *BPLRU) CapacityPages() int { return c.capacity }

// NodeBytes implements Policy: the paper's Fig. 12 charges 24 bytes per
// block node.
func (c *BPLRU) NodeBytes() int { return 24 }

// NodeCount implements Policy.
func (c *BPLRU) NodeCount() int { return c.order.Len() }

// Access implements Policy. Reads are served from the buffer when present
// but do not reorder the list: BPLRU manages RAM purely as a write buffer.
func (c *BPLRU) Access(req Request) Result {
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
				c.noteWrite(n, lpn)
			}
		} else {
			res.Misses++
			if req.Write {
				for c.pageCount >= c.capacity {
					c.buf.Evictions = append(c.buf.Evictions, c.evictTail())
				}
				if n = c.blocks.Get(blockID); n == nil { // may have been evicted making room
					n = c.newBlock(blockID)
					c.order.PushHead(n)
					c.blocks.Put(blockID, n)
				}
				n.Value.pages.add(lpn)
				c.pageCount++
				res.Inserted++
				c.noteWrite(n, lpn)
			} else {
				c.buf.Reads = append(c.buf.Reads, lpn)
			}
		}
		lpn++
	}
	c.buf.Finish(&res)
	return res
}

// newBlock takes a block node from the free stack (keeping its bitmap
// storage), or allocates one.
func (c *BPLRU) newBlock(blockID int64) *list.Node[*bplruBlock] {
	var n *list.Node[*bplruBlock]
	if len(c.free) > 0 {
		n = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	} else {
		n = &list.Node[*bplruBlock]{Value: &bplruBlock{}}
	}
	b := n.Value
	b.blockID = blockID
	b.pages.reset(blockID*c.pagesPerBlock, c.pagesPerBlock)
	b.sequential = true
	b.nextSeq = 0
	return n
}

// noteWrite applies BPLRU's list adjustment after a write touches a block:
// move to head normally, or to the tail once the block has been written
// fully sequentially (LRU compensation).
func (c *BPLRU) noteWrite(n *list.Node[*bplruBlock], lpn int64) {
	b := n.Value
	idx := int(lpn % c.pagesPerBlock)
	if b.sequential {
		if idx == b.nextSeq {
			b.nextSeq++
		} else {
			b.sequential = false
		}
	}
	if b.sequential && b.nextSeq == int(c.pagesPerBlock) {
		// Fully sequentially written: prefer it for eviction.
		c.order.MoveToTail(n)
		return
	}
	c.order.MoveToHead(n)
}

// evictTail flushes the least recently written block onto one physical
// block, optionally padding it to a full block with flash reads.
func (c *BPLRU) evictTail() Eviction {
	n := c.order.PopTail()
	if n == nil {
		panic("cache: BPLRU evict on empty buffer")
	}
	b := n.Value
	c.blocks.Delete(b.blockID)
	c.pageCount -= b.pages.len()
	c.free = append(c.free, n)

	if !c.padding {
		mark := c.buf.Mark()
		c.buf.LPNs = b.pages.appendLPNs(c.buf.LPNs)
		return Eviction{LPNs: c.buf.Carve(mark), BlockBound: true}
	}
	// Padding: program the whole block; absent pages are first read.
	base := b.blockID * c.pagesPerBlock
	mark := c.buf.Mark()
	for off := int64(0); off < c.pagesPerBlock; off++ {
		c.buf.LPNs = append(c.buf.LPNs, base+off)
	}
	all := c.buf.Carve(mark)
	mark = c.buf.Mark()
	for off := int64(0); off < c.pagesPerBlock; off++ {
		if !b.pages.has(base + off) {
			c.buf.LPNs = append(c.buf.LPNs, base+off)
		}
	}
	var padReads []int64
	if w := c.buf.Carve(mark); len(w) > 0 {
		padReads = w
	}
	return Eviction{LPNs: all, BlockBound: true, PaddingReads: padReads}
}

// Contains reports whether a page is buffered (tests).
func (c *BPLRU) Contains(lpn int64) bool {
	n := c.blocks.Get(lpn / c.pagesPerBlock)
	return n != nil && n.Value.pages.has(lpn)
}

// EvictIdle implements cache.IdleEvictor: during idle time (or a periodic
// destage tick) the least recently written block is flushed, as long as
// the buffer is more than half full — the same threshold LRU uses.
func (c *BPLRU) EvictIdle(now int64) (Eviction, bool) {
	if c.pageCount <= c.capacity/2 {
		return Eviction{}, false
	}
	c.buf.Reset()
	return c.evictTail(), true
}
