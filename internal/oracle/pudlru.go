package oracle

import (
	"fmt"
	"sort"

	"repro/internal/cache"
)

// opudBlock is one logical block of buffered pages with its update
// history.
type opudBlock struct {
	blockID    int64
	pages      []int64 // kept sorted ascending
	updates    int64   // pages written into the block since it was created
	insertTime int64
	lastUpdate int64
}

func (b *opudBlock) has(lpn int64) bool {
	for _, p := range b.pages {
		if p == lpn {
			return true
		}
	}
	return false
}

// span is the block's update span at time now, the PUD numerator: the
// time since insertion plus the time since the last update, clamped at 1.
func (b *opudBlock) span(now int64) int64 {
	return max(now-b.insertTime+now-b.lastUpdate, 1)
}

// PUDLRU is the paper-literal PUD-LRU write buffer of Hu et al.
// (MASCOTS'10): pages grouped by logical block, each block scored by its
// Predicted average Update Distance PUD = span/updates. Every page
// written, hit or new, is one update and moves its block to the front of
// a slice ordered most-recently-updated first. Eviction flushes the whole
// block with the largest PUD; the scan starts at the least recently
// updated block and keeps the first maximum, so ties go to the block
// updated longest ago. PUDs are compared exactly, as fractions.
type PUDLRU struct {
	capacity      int
	pagesPerBlock int64
	order         []*opudBlock // index 0 = most recently updated
}

// NewPUDLRU builds the oracle.
func NewPUDLRU(capacityPages, pagesPerBlock int) *PUDLRU {
	cache.ValidateCapacity(capacityPages)
	if pagesPerBlock < 1 {
		panic("oracle: PUD-LRU pagesPerBlock must be >= 1")
	}
	return &PUDLRU{capacity: capacityPages, pagesPerBlock: int64(pagesPerBlock)}
}

// Name implements Policy.
func (c *PUDLRU) Name() string { return "PUD-LRU" }

// Len implements Policy.
func (c *PUDLRU) Len() int {
	n := 0
	for _, b := range c.order {
		n += len(b.pages)
	}
	return n
}

// NodeCount implements Policy: one node per block.
func (c *PUDLRU) NodeCount() int { return len(c.order) }

// findBlock returns the position of a block, or -1.
func (c *PUDLRU) findBlock(blockID int64) int {
	for i, b := range c.order {
		if b.blockID == blockID {
			return i
		}
	}
	return -1
}

// update records one page written into the block at position at and
// moves the block to the front.
func (c *PUDLRU) update(at int, now int64) {
	b := c.order[at]
	b.updates++
	b.lastUpdate = now
	c.order = append(c.order[:at], c.order[at+1:]...)
	c.order = append([]*opudBlock{b}, c.order...)
}

// Access implements Policy. Read hits change nothing.
func (c *PUDLRU) Access(req cache.Request) Result {
	cache.CheckRequest(req)
	var res Result
	lpn := req.LPN
	for i := 0; i < req.Pages; i++ {
		at := c.findBlock(lpn / c.pagesPerBlock)
		if at >= 0 && c.order[at].has(lpn) {
			res.Hits++
			if req.Write {
				c.update(at, req.Time)
			}
		} else {
			res.Misses++
			if req.Write {
				for c.Len() >= c.capacity {
					res.Evictions = append(res.Evictions, c.evictLargest(req.Time))
				}
				// The block may have been evicted while making room.
				if at = c.findBlock(lpn / c.pagesPerBlock); at < 0 {
					b := &opudBlock{blockID: lpn / c.pagesPerBlock, insertTime: req.Time, lastUpdate: req.Time}
					c.order = append([]*opudBlock{b}, c.order...)
					at = 0
				}
				b := c.order[at]
				b.pages = append(b.pages, lpn)
				sort.Slice(b.pages, func(i, j int) bool { return b.pages[i] < b.pages[j] })
				res.Inserted++
				c.update(at, req.Time)
			} else {
				res.ReadMisses = append(res.ReadMisses, lpn)
			}
		}
		lpn++
	}
	return res
}

// evictLargest flushes the block with the largest PUD at time now.
func (c *PUDLRU) evictLargest(now int64) Eviction {
	victim := -1
	for i := len(c.order) - 1; i >= 0; i-- {
		if victim < 0 {
			victim = i
			continue
		}
		// PUD_i > PUD_victim, cross-multiplied: updates are at least 1.
		b, v := c.order[i], c.order[victim]
		if b.span(now)*v.updates > v.span(now)*b.updates {
			victim = i
		}
	}
	if victim < 0 {
		panic("oracle: PUD-LRU evict on empty buffer")
	}
	b := c.order[victim]
	c.order = append(c.order[:victim], c.order[victim+1:]...)
	return Eviction{LPNs: append([]int64(nil), b.pages...), BlockBound: true}
}

// EvictIdle implements Policy: PUD-LRU has no idle eviction.
func (c *PUDLRU) EvictIdle(now int64) (Eviction, bool) { return Eviction{}, false }

// CheckInvariants validates occupancy, grouping, update counts and
// uniqueness.
func (c *PUDLRU) CheckInvariants() error {
	if n := c.Len(); n > c.capacity {
		return fmt.Errorf("oracle: PUD-LRU holds %d pages, capacity %d", n, c.capacity)
	}
	seenBlock := make(map[int64]bool, len(c.order))
	seen := make(map[int64]bool)
	for _, b := range c.order {
		if seenBlock[b.blockID] {
			return fmt.Errorf("oracle: PUD-LRU block %d listed twice", b.blockID)
		}
		seenBlock[b.blockID] = true
		if b.updates < int64(len(b.pages)) {
			return fmt.Errorf("oracle: PUD-LRU block %d has %d updates for %d pages", b.blockID, b.updates, len(b.pages))
		}
		for _, p := range b.pages {
			if p/c.pagesPerBlock != b.blockID {
				return fmt.Errorf("oracle: PUD-LRU lpn %d in block %d", p, b.blockID)
			}
			if seen[p] {
				return fmt.Errorf("oracle: PUD-LRU lpn %d buffered twice", p)
			}
			seen[p] = true
		}
	}
	return nil
}
