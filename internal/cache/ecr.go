package cache

import (
	"math"

	"repro/internal/list"
	"repro/internal/vindex"
)

// ECR approximates the eviction-cost-aware replacement of Chen et al.
// (CCPE'21), the paper's citation [10]: when the buffer is full, the
// victim is the page whose flush will wait least — i.e. the least recently
// used page belonging to the channel whose I/O queue frees earliest. Pages
// carry static channel affinity (LPN mod channels, the static-allocation
// assumption ECR builds on), flushes are pinned to the page's channel, and
// the channel queue state comes from the attached DeviceView.
//
// Without a device view ECR degrades to per-channel LRU with round-robin
// victim channels, which keeps it usable (and testable) standalone.
//
// The channel argmin routes through vindex.Best so the first-wins
// tie-break (lowest channel on equal backlog) is the shared selection
// contract rather than a loop idiosyncrasy; the candidate set is the
// fixed channel population, so no heap is involved.
type ECR struct {
	capacity int
	channels int
	view     DeviceView
	pages    PageIndex[list.Node[lruEntry]]
	order    []list.List[lruEntry] // one LRU list per channel
	rr       int                   // fallback victim channel without a view

	buf      ResultBuffers
	free     []*list.Node[lruEntry] // recycled page nodes
	scoreBuf []int64                // reusable per-channel backlog scores
	scanCost int64
}

// NewECR returns an ECR buffer for a device with the given channel count.
func NewECR(capacityPages, channels int) *ECR {
	ValidateCapacity(capacityPages)
	if channels < 1 {
		panic("cache: ECR channels must be >= 1")
	}
	return &ECR{
		capacity: capacityPages,
		channels: channels,
		order:    make([]list.List[lruEntry], channels),
		scoreBuf: make([]int64, channels),
	}
}

// AttachDevice implements DeviceAware.
func (c *ECR) AttachDevice(v DeviceView) { c.view = v }

// Name implements Policy.
func (c *ECR) Name() string { return "ECR" }

// Len implements Policy.
func (c *ECR) Len() int { return c.pages.Len() }

// CapacityPages implements Policy.
func (c *ECR) CapacityPages() int { return c.capacity }

// NodeBytes implements Policy: an LRU node plus the channel tag.
func (c *ECR) NodeBytes() int { return 13 }

// NodeCount implements Policy.
func (c *ECR) NodeCount() int { return c.pages.Len() }

// VictimScanCost implements VictimScanReporter.
func (c *ECR) VictimScanCost() int64 { return c.scanCost }

// channelOf is the static page→channel affinity.
func (c *ECR) channelOf(lpn int64) int { return int(lpn % int64(c.channels)) }

// Access implements Policy.
func (c *ECR) Access(req Request) Result {
	CheckRequest(req)
	c.buf.Reset()
	var res Result
	lpn := req.LPN
	for i := 0; i < req.Pages; i++ {
		if n := c.pages.Get(lpn); n != nil {
			res.Hits++
			c.order[c.channelOf(lpn)].MoveToHead(n)
		} else {
			res.Misses++
			if req.Write {
				for c.pages.Len() >= c.capacity {
					c.buf.Evictions = append(c.buf.Evictions, c.evict(req.Time))
				}
				n := c.newNode(lpn)
				c.order[c.channelOf(lpn)].PushHead(n)
				c.pages.Put(lpn, n)
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

// newNode takes a page node from the free stack, or allocates one.
func (c *ECR) newNode(lpn int64) *list.Node[lruEntry] {
	if len(c.free) > 0 {
		n := c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		n.Value = lruEntry{lpn: lpn}
		return n
	}
	return &list.Node[lruEntry]{Value: lruEntry{lpn: lpn}}
}

// emptyChannel marks a channel holding no pages in the score buffer: it
// compares worse than any real backlog (real frees are clamped one below
// it), so Best never selects an empty channel while any page remains.
const emptyChannel = math.MaxInt64

// evict picks the channel with the earliest-freeing bus among those
// holding pages, and flushes its LRU tail page there.
func (c *ECR) evict(now int64) Eviction {
	victimCh := -1
	if c.view != nil {
		for ch := 0; ch < c.channels; ch++ {
			if c.order[ch].Len() == 0 {
				c.scoreBuf[ch] = emptyChannel
				continue
			}
			free := c.view.ChannelFreeAt(ch)
			if free < now {
				free = now
			}
			if free >= emptyChannel {
				free = emptyChannel - 1
			}
			c.scoreBuf[ch] = free
		}
		c.scanCost += int64(c.channels)
		if ch := vindex.Best(c.scoreBuf); ch >= 0 && c.scoreBuf[ch] != emptyChannel {
			victimCh = ch
		}
	} else {
		for probe := 0; probe < c.channels; probe++ {
			ch := (c.rr + probe) % c.channels
			c.scanCost++
			if c.order[ch].Len() > 0 {
				victimCh = ch
				c.rr = (ch + 1) % c.channels
				break
			}
		}
	}
	if victimCh < 0 {
		panic("cache: ECR evict on empty buffer")
	}
	n := c.order[victimCh].PopTail()
	c.pages.Delete(n.Value.lpn)
	mark := c.buf.Mark()
	c.buf.LPNs = append(c.buf.LPNs, n.Value.lpn)
	lpns := c.buf.Carve(mark)
	c.free = append(c.free, n)
	return Eviction{LPNs: lpns, HasChannelHint: true, Channel: victimCh}
}

// Contains reports whether a page is buffered (tests).
func (c *ECR) Contains(lpn int64) bool { return c.pages.Get(lpn) != nil }

var (
	_ Policy             = (*ECR)(nil)
	_ DeviceAware        = (*ECR)(nil)
	_ VictimScanReporter = (*ECR)(nil)
)
