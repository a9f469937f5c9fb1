package oracle

import (
	"fmt"
	"sort"

	"repro/internal/cache"
)

// ofGroup clusters the buffered pages of one logical flash block.
type ofGroup struct {
	blockID int64
	pages   []int64 // kept sorted ascending
}

func (g *ofGroup) has(lpn int64) bool {
	for _, p := range g.pages {
		if p == lpn {
			return true
		}
	}
	return false
}

// FAB is the paper-literal flash-aware buffer of Jo et al. (TCE'06):
// pages grouped by logical block, whole-group eviction of the group
// holding the most pages, recency ignored. Groups sit in insertion order
// with the newest at index 0; ties between equally full groups go to the
// oldest (largest index).
type FAB struct {
	capacity      int
	pagesPerBlock int64
	order         []*ofGroup // index 0 = most recently created
}

// NewFAB builds the oracle.
func NewFAB(capacityPages, pagesPerBlock int) *FAB {
	cache.ValidateCapacity(capacityPages)
	if pagesPerBlock < 1 {
		panic("oracle: FAB pagesPerBlock must be >= 1")
	}
	return &FAB{capacity: capacityPages, pagesPerBlock: int64(pagesPerBlock)}
}

// Name implements Policy.
func (c *FAB) Name() string { return "FAB" }

// Len implements Policy.
func (c *FAB) Len() int {
	n := 0
	for _, g := range c.order {
		n += len(g.pages)
	}
	return n
}

// NodeCount implements Policy: one node per group.
func (c *FAB) NodeCount() int { return len(c.order) }

// findGroup returns the group for a block ID, or nil.
func (c *FAB) findGroup(blockID int64) *ofGroup {
	for _, g := range c.order {
		if g.blockID == blockID {
			return g
		}
	}
	return nil
}

// Access implements Policy. Hits neither reorder nor count anything
// beyond the hit itself — FAB ignores recency entirely.
func (c *FAB) Access(req cache.Request) Result {
	cache.CheckRequest(req)
	var res Result
	lpn := req.LPN
	for i := 0; i < req.Pages; i++ {
		blockID := lpn / c.pagesPerBlock
		g := c.findGroup(blockID)
		if g != nil && g.has(lpn) {
			res.Hits++
		} else {
			res.Misses++
			if req.Write {
				for c.Len() >= c.capacity {
					res.Evictions = append(res.Evictions, c.evictLargest())
				}
				// The group may have been evicted while making room.
				g = c.findGroup(blockID)
				if g == nil {
					g = &ofGroup{blockID: blockID}
					c.order = append([]*ofGroup{g}, c.order...)
				}
				g.pages = append(g.pages, lpn)
				sort.Slice(g.pages, func(i, j int) bool { return g.pages[i] < g.pages[j] })
				res.Inserted++
			} else {
				res.ReadMisses = append(res.ReadMisses, lpn)
			}
		}
		lpn++
	}
	return res
}

// evictLargest flushes the fullest group; ties prefer the oldest (the
// entry nearest the list tail).
func (c *FAB) evictLargest() Eviction {
	victim := -1
	best := 0
	// Scan oldest to newest with strictly-greater, so the oldest of the
	// fullest groups wins.
	for i := len(c.order) - 1; i >= 0; i-- {
		if l := len(c.order[i].pages); l > best {
			best, victim = l, i
		}
	}
	if victim < 0 {
		panic("oracle: FAB evict on empty buffer")
	}
	g := c.order[victim]
	c.order = append(c.order[:victim], c.order[victim+1:]...)
	return Eviction{LPNs: append([]int64(nil), g.pages...), BlockBound: true}
}

// EvictIdle implements Policy with the fast implementation's gating.
func (c *FAB) EvictIdle(now int64) (Eviction, bool) {
	if c.Len() <= c.capacity/2 {
		return Eviction{}, false
	}
	return c.evictLargest(), true
}

// CheckInvariants validates occupancy, grouping and uniqueness.
func (c *FAB) CheckInvariants() error {
	if n := c.Len(); n > c.capacity {
		return fmt.Errorf("oracle: FAB holds %d pages, capacity %d", n, c.capacity)
	}
	seenGroup := make(map[int64]bool, len(c.order))
	seen := make(map[int64]bool)
	for _, g := range c.order {
		if seenGroup[g.blockID] {
			return fmt.Errorf("oracle: FAB group %d listed twice", g.blockID)
		}
		seenGroup[g.blockID] = true
		for _, p := range g.pages {
			if p/c.pagesPerBlock != g.blockID {
				return fmt.Errorf("oracle: FAB lpn %d in group %d", p, g.blockID)
			}
			if seen[p] {
				return fmt.Errorf("oracle: FAB lpn %d buffered twice", p)
			}
			seen[p] = true
		}
	}
	return nil
}
