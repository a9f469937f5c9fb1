package cache

import "repro/internal/list"

// raEntry is one page of the read cache.
type raEntry struct {
	lpn        int64
	prefetched bool // brought in by readahead, not yet demanded
}

// ReadAhead composes any write-buffer policy with a small sequential
// readahead read cache, in the spirit of the pattern-based prefetching
// work the paper builds on (Li et al., ACM TOS'22, its citation [12]):
// the DRAM holds the write buffer plus a read region that absorbs
// repeated reads and prefetches ahead of detected sequential read
// streams.
//
// Semantics:
//
//   - Writes go to the inner write buffer untouched; any read-cache copy
//     of a written page is dropped (the buffer now holds newer data).
//   - A read hits the write buffer first, then the read cache.
//   - A read miss is fetched from flash and cached in the read region.
//   - A read that continues one of the recently seen streams triggers a
//     background prefetch of the next PrefetchDepth pages; prefetched
//     pages do not block the triggering request.
//
// The read region is managed by LRU and evicts silently (clean data).
type ReadAhead struct {
	inner Policy

	readCap       int
	prefetchDepth int
	pages         PageIndex[list.Node[raEntry]]
	order         list.List[raEntry]    // head = most recent
	free          []*list.Node[raEntry] // recycled nodes; steady state allocates none
	buf           ResultBuffers         // backs Result.Prefetches

	// streams holds the end LPNs of recent read runs for sequential
	// detection.
	streams [4]int64

	// Stats.
	readHits     int64 // hits served by the read region
	prefetchHits int64 // first demand hits on prefetched pages
	prefetched   int64 // pages prefetched
}

// NewReadAhead wraps inner with a read cache of readPages pages that
// prefetches prefetchDepth pages ahead of sequential read streams.
func NewReadAhead(inner Policy, readPages, prefetchDepth int) *ReadAhead {
	ValidateCapacity(readPages)
	if prefetchDepth < 0 {
		prefetchDepth = 0
	}
	return &ReadAhead{
		inner:         inner,
		readCap:       readPages,
		prefetchDepth: prefetchDepth,
	}
}

// Name implements Policy.
func (c *ReadAhead) Name() string { return c.inner.Name() + "+RA" }

// Len implements Policy: write-buffer pages plus read-region pages.
func (c *ReadAhead) Len() int { return c.inner.Len() + c.pages.Len() }

// CapacityPages implements Policy.
func (c *ReadAhead) CapacityPages() int { return c.inner.CapacityPages() + c.readCap }

// NodeBytes implements Policy (the read region uses LRU-sized nodes; the
// dominant metadata is the inner policy's).
func (c *ReadAhead) NodeBytes() int { return c.inner.NodeBytes() }

// NodeCount implements Policy.
func (c *ReadAhead) NodeCount() int { return c.inner.NodeCount() + c.order.Len() }

// ReadRegionLen returns the pages held by the read cache (tests).
func (c *ReadAhead) ReadRegionLen() int { return c.pages.Len() }

// VictimScanCost forwards the inner policy's victim-selection work
// counter, 0 when the inner policy does not report one.
func (c *ReadAhead) VictimScanCost() int64 {
	if r, ok := c.inner.(VictimScanReporter); ok {
		return r.VictimScanCost()
	}
	return 0
}

// Stats returns (read-region hits, prefetch first-hits, pages prefetched).
func (c *ReadAhead) Stats() (readHits, prefetchHits, prefetched int64) {
	return c.readHits, c.prefetchHits, c.prefetched
}

// Access implements Policy.
func (c *ReadAhead) Access(req Request) Result {
	CheckRequest(req)
	if req.Write {
		// Drop stale read-cache copies, then delegate.
		lpn := req.LPN
		for i := 0; i < req.Pages; i++ {
			if n := c.pages.Get(lpn); n != nil {
				c.order.Remove(n)
				c.pages.Delete(lpn)
				c.free = append(c.free, n)
			}
			lpn++
		}
		return c.inner.Access(req)
	}
	// Read: write buffer first (per page), then the read region.
	res := c.inner.Access(req)
	c.buf.Reset()
	c.buf.Prefetches = append(c.buf.Prefetches, res.Prefetches...) // an inner prefetcher's pages stay first
	// The inner policy reported misses for pages it does not hold; the
	// read region may still satisfy them. Filtering in place keeps the
	// slice aliased to the inner policy's buffer (no allocation) while
	// preserving its validity contract: it is consumed before the inner
	// policy's next Access.
	stillMissing := res.ReadMisses[:0]
	for _, lpn := range res.ReadMisses {
		if n := c.pages.Get(lpn); n != nil {
			res.Hits++
			res.Misses--
			c.readHits++
			if n.Value.prefetched {
				c.prefetchHits++
				n.Value.prefetched = false
			}
			c.order.MoveToHead(n)
		} else {
			stillMissing = append(stillMissing, lpn)
			c.insertRead(lpn, false)
		}
	}
	if len(stillMissing) == 0 {
		stillMissing = nil
	}
	res.ReadMisses = stillMissing
	// Sequential stream detection and readahead.
	if c.prefetchDepth > 0 {
		if c.continuesStream(req.LPN) {
			next := req.LPN + int64(req.Pages)
			for i := 0; i < c.prefetchDepth; i++ {
				lpn := next + int64(i)
				if c.pages.Get(lpn) != nil {
					continue
				}
				c.buf.Prefetches = append(c.buf.Prefetches, lpn)
				c.insertRead(lpn, true)
				c.prefetched++
			}
		}
		c.noteStream(req.LPN + int64(req.Pages))
	}
	c.buf.Finish(&res)
	return res
}

// insertRead adds a page to the read region, silently evicting its LRU
// tail when full.
func (c *ReadAhead) insertRead(lpn int64, prefetched bool) {
	if n := c.pages.Get(lpn); n != nil {
		c.order.MoveToHead(n)
		return
	}
	for c.pages.Len() >= c.readCap {
		tail := c.order.PopTail()
		c.pages.Delete(tail.Value.lpn)
		c.free = append(c.free, tail)
	}
	var n *list.Node[raEntry]
	if k := len(c.free); k > 0 {
		n, c.free = c.free[k-1], c.free[:k-1]
	} else {
		n = &list.Node[raEntry]{}
	}
	n.Value = raEntry{lpn: lpn, prefetched: prefetched}
	c.order.PushHead(n)
	c.pages.Put(lpn, n)
}

// continuesStream reports whether a read starting at lpn continues one of
// the recent read runs.
func (c *ReadAhead) continuesStream(lpn int64) bool {
	for _, end := range c.streams {
		if end != 0 && lpn == end {
			return true
		}
	}
	return false
}

// noteStream records a read run's end, displacing the oldest slot.
func (c *ReadAhead) noteStream(end int64) {
	copy(c.streams[:], c.streams[1:])
	c.streams[len(c.streams)-1] = end
}

var _ Policy = (*ReadAhead)(nil)
