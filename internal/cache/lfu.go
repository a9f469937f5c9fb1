package cache

import "repro/internal/vindex"

// lfuEntry is one cached page together with its reference count. seq is
// the entry's admission order into its current frequency class: it is
// re-stamped on every promotion, so ascending (freq, seq) reproduces the
// classic frequency-bucket structure's victim exactly — lowest frequency
// first, least recently promoted/inserted within a frequency.
type lfuEntry struct {
	lpn  int64
	freq int64
	seq  uint64
	hd   vindex.Handle[*lfuEntry]
	next *lfuEntry // pool link
}

// LFU is a page-granularity least-frequently-used write buffer. It rounds
// out the "traditional schemes" the paper's related-work section names
// (FIFO, LRU, LFU).
//
// Earlier revisions kept the classic O(1) frequency-bucket lists; victim
// selection now routes through the shared vindex heap keyed (freq, seq),
// which selects the same page (the bucket structure's lowest-bucket LRU
// tail is exactly the minimum (freq, seq) entry) while sharing the
// indexed core with the block-granularity policies. The equivalent
// full-scan survives as the linear reference mode (LinearScanSelector)
// for differential validation and the capacity benchmarks.
type LFU struct {
	capacity int
	pages    PageIndex[lfuEntry]

	heap     vindex.Heap[*lfuEntry]
	seq      uint64
	free     *lfuEntry
	buf      ResultBuffers
	linear   bool
	scanCost int64
}

// NewLFU returns a page-level LFU buffer with the given capacity in pages.
func NewLFU(capacityPages int) *LFU {
	ValidateCapacity(capacityPages)
	return &LFU{capacity: capacityPages}
}

var (
	_ Policy             = (*LFU)(nil)
	_ VictimScanReporter = (*LFU)(nil)
	_ LinearScanSelector = (*LFU)(nil)
)

// Name implements Policy.
func (c *LFU) Name() string { return "LFU" }

// Len implements Policy.
func (c *LFU) Len() int { return c.pages.Len() }

// CapacityPages implements Policy.
func (c *LFU) CapacityPages() int { return c.capacity }

// NodeBytes implements Policy: an LFU node carries a pointer and a counter
// beyond the 12-byte LRU node.
func (c *LFU) NodeBytes() int { return 16 }

// NodeCount implements Policy.
func (c *LFU) NodeCount() int { return c.pages.Len() }

// VictimScanCost implements VictimScanReporter.
func (c *LFU) VictimScanCost() int64 { return c.scanCost }

// SetLinearVictimScan implements LinearScanSelector.
func (c *LFU) SetLinearVictimScan(enable bool) {
	if c.pages.Len() > 0 {
		panic("cache: LFU victim-scan mode must be set before use")
	}
	c.linear = enable
}

// Access implements Policy.
func (c *LFU) Access(req Request) Result {
	CheckRequest(req)
	c.buf.Reset()
	var res Result
	lpn := req.LPN
	for i := 0; i < req.Pages; i++ {
		if e := c.pages.Get(lpn); e != nil {
			res.Hits++
			c.promote(e)
		} else {
			res.Misses++
			if req.Write {
				for c.pages.Len() >= c.capacity {
					c.buf.Evictions = append(c.buf.Evictions, c.evictOne())
				}
				c.insert(lpn)
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

// insert admits a new page at frequency 1.
func (c *LFU) insert(lpn int64) {
	e := c.free
	if e != nil {
		c.free = e.next
		e.next = nil
	} else {
		e = &lfuEntry{}
	}
	c.seq++
	e.lpn = lpn
	e.freq = 1
	e.seq = c.seq
	e.hd = vindex.Handle[*lfuEntry]{}
	if !c.linear {
		e.hd = c.heap.Push(e.freq, e.seq, e)
	}
	c.pages.Put(lpn, e)
}

// promote bumps a hit page into the next frequency class, re-stamping its
// admission order there.
func (c *LFU) promote(e *lfuEntry) {
	c.seq++
	e.freq++
	e.seq = c.seq
	if !c.linear {
		e.hd = c.heap.Update(e.hd, e.freq, e.seq, e)
	}
}

// evictOne flushes the least frequently used page, breaking frequency
// ties toward the page least recently admitted into that frequency class.
func (c *LFU) evictOne() Eviction {
	var victim *lfuEntry
	if c.linear {
		// (freq, seq) is a strict total order, so the argmin does not
		// depend on Range's visiting order.
		c.pages.Range(func(_ int64, e *lfuEntry) bool {
			c.scanCost++
			if victim == nil || e.freq < victim.freq || (e.freq == victim.freq && e.seq < victim.seq) {
				victim = e
			}
			return true
		})
	} else {
		before := c.heap.Cost()
		v, ok := c.heap.PopMin()
		c.scanCost += c.heap.Cost() - before
		if ok {
			victim = v
		}
	}
	if victim == nil {
		panic("cache: LFU evict on empty cache")
	}
	mark := c.buf.Mark()
	c.buf.LPNs = append(c.buf.LPNs, victim.lpn)
	lpns := c.buf.Carve(mark)
	c.pages.Delete(victim.lpn)
	victim.next = c.free
	c.free = victim
	return Eviction{LPNs: lpns}
}

// Contains reports whether a page is buffered (tests).
func (c *LFU) Contains(lpn int64) bool { return c.pages.Get(lpn) != nil }

// Freq returns the reference count of a buffered page, 0 if absent (tests).
func (c *LFU) Freq(lpn int64) int64 {
	if e := c.pages.Get(lpn); e != nil {
		return e.freq
	}
	return 0
}
