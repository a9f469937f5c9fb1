package oracle

import (
	"fmt"

	"repro/internal/cache"
)

// olfuEntry is one buffered page with its reference count.
type olfuEntry struct {
	lpn  int64
	freq int64
}

// LFU is the paper-literal page-granularity least-frequently-used write
// buffer: one slice ordered most-recently-touched first, where a touch is
// an insertion or a hit. Every hit, read or write, raises the page's
// count and moves it to the front; eviction flushes the page with the
// lowest count, and among equal counts the one touched longest ago.
type LFU struct {
	capacity int
	order    []olfuEntry // index 0 = most recently touched
}

// NewLFU builds the oracle.
func NewLFU(capacityPages int) *LFU {
	cache.ValidateCapacity(capacityPages)
	return &LFU{capacity: capacityPages}
}

// Name implements Policy.
func (c *LFU) Name() string { return "LFU" }

// Len implements Policy.
func (c *LFU) Len() int { return len(c.order) }

// NodeCount implements Policy: one node per page.
func (c *LFU) NodeCount() int { return len(c.order) }

// indexOf returns the position of a page, or -1.
func (c *LFU) indexOf(lpn int64) int {
	for i, e := range c.order {
		if e.lpn == lpn {
			return i
		}
	}
	return -1
}

// Access implements Policy, walking the request page by page.
func (c *LFU) Access(req cache.Request) Result {
	cache.CheckRequest(req)
	var res Result
	lpn := req.LPN
	for i := 0; i < req.Pages; i++ {
		if at := c.indexOf(lpn); at >= 0 {
			res.Hits++
			e := c.order[at]
			e.freq++
			c.order = append(c.order[:at], c.order[at+1:]...)
			c.order = append([]olfuEntry{e}, c.order...)
		} else {
			res.Misses++
			if req.Write {
				for len(c.order) >= c.capacity {
					res.Evictions = append(res.Evictions, c.evictLeast())
				}
				c.order = append([]olfuEntry{{lpn: lpn, freq: 1}}, c.order...)
				res.Inserted++
			} else {
				res.ReadMisses = append(res.ReadMisses, lpn)
			}
		}
		lpn++
	}
	return res
}

// evictLeast flushes the page with the lowest count as its own batch.
func (c *LFU) evictLeast() Eviction {
	victim := -1
	// Scan from the page touched longest ago with strictly-lower, so the
	// oldest of the least used pages wins.
	for i := len(c.order) - 1; i >= 0; i-- {
		if victim < 0 || c.order[i].freq < c.order[victim].freq {
			victim = i
		}
	}
	if victim < 0 {
		panic("oracle: LFU evict on empty buffer")
	}
	lpn := c.order[victim].lpn
	c.order = append(c.order[:victim], c.order[victim+1:]...)
	return Eviction{LPNs: []int64{lpn}}
}

// EvictIdle implements Policy: LFU has no idle eviction.
func (c *LFU) EvictIdle(now int64) (Eviction, bool) { return Eviction{}, false }

// CheckInvariants validates occupancy, counts and uniqueness.
func (c *LFU) CheckInvariants() error {
	if len(c.order) > c.capacity {
		return fmt.Errorf("oracle: LFU holds %d pages, capacity %d", len(c.order), c.capacity)
	}
	seen := make(map[int64]bool, len(c.order))
	for _, e := range c.order {
		if seen[e.lpn] {
			return fmt.Errorf("oracle: LFU holds lpn %d twice", e.lpn)
		}
		seen[e.lpn] = true
		if e.freq < 1 {
			return fmt.Errorf("oracle: LFU lpn %d has count %d", e.lpn, e.freq)
		}
	}
	return nil
}
