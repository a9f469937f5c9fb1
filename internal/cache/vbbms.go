package cache

import "repro/internal/list"

// vbbmsBlock is one virtual block: an aligned group of consecutive pages in
// one of the two regions.
type vbbmsBlock struct {
	vbID  int64
	pages pageSet
}

// vbbmsRegion is one of VBBMS's two sub-caches.
type vbbmsRegion struct {
	capacity  int   // pages
	vbSize    int64 // virtual-block size in pages
	lru       bool  // true: hits move blocks to head; false: FIFO
	pageCount int
	blocks    PageIndex[list.Node[*vbbmsBlock]] // by virtual-block number
	order     list.List[*vbbmsBlock]
	free      []*list.Node[*vbbmsBlock] // recycled virtual-block nodes
}

// VBBMS is the virtual-block buffer management strategy of Du et al.
// (TCE'19), configured as the paper's §4.1 describes: the cache splits 3:2
// into a random-request region and a sequential-request region; virtual
// blocks are 3 pages in the random region (managed by LRU) and 4 pages in
// the sequential region (managed by FIFO). Evictions flush one virtual
// block, striped across channels. The victim is always the region's
// order-list tail, so victim selection is an O(1) pop.
type VBBMS struct {
	capacity   int
	seqMin     int // requests with at least this many pages are sequential
	random     vbbmsRegion
	sequential vbbmsRegion
	buf        ResultBuffers

	scanCost int64
}

// NewVBBMS returns a VBBMS buffer with the paper's configuration: a 3:2
// random:sequential split, 3- and 4-page virtual blocks, and requests of
// five or more pages classified as sequential (matching Req-block's small
// request bound δ=5 so the two schemes draw the line identically).
func NewVBBMS(capacityPages int) *VBBMS {
	return NewVBBMSConfig(capacityPages, 3, 2, 3, 4, 5)
}

// NewVBBMSConfig returns a VBBMS buffer with an explicit randomShare:
// seqShare capacity split, per-region virtual block sizes, and the minimum
// request size (pages) classified as sequential.
func NewVBBMSConfig(capacityPages, randomShare, seqShare, randVB, seqVB, seqMin int) *VBBMS {
	ValidateCapacity(capacityPages)
	if randomShare < 1 || seqShare < 1 || randVB < 1 || seqVB < 1 || seqMin < 1 {
		panic("cache: VBBMS config values must be >= 1")
	}
	randCap := capacityPages * randomShare / (randomShare + seqShare)
	if randCap < 1 {
		randCap = 1
	}
	seqCap := capacityPages - randCap
	if seqCap < 1 {
		seqCap = 1
		randCap = capacityPages - seqCap
	}
	return &VBBMS{
		capacity: capacityPages,
		seqMin:   seqMin,
		random: vbbmsRegion{
			capacity: randCap,
			vbSize:   int64(randVB),
			lru:      true,
		},
		sequential: vbbmsRegion{
			capacity: seqCap,
			vbSize:   int64(seqVB),
			lru:      false,
		},
	}
}

var (
	_ Policy             = (*VBBMS)(nil)
	_ OccupancySampler   = (*VBBMS)(nil)
	_ VictimScanReporter = (*VBBMS)(nil)
)

// VictimScanCost implements VictimScanReporter: one step per tail pop.
func (c *VBBMS) VictimScanCost() int64 { return c.scanCost }

// Name implements Policy.
func (c *VBBMS) Name() string { return "VBBMS" }

// Len implements Policy.
func (c *VBBMS) Len() int { return c.random.pageCount + c.sequential.pageCount }

// CapacityPages implements Policy.
func (c *VBBMS) CapacityPages() int { return c.capacity }

// NodeBytes implements Policy: the paper charges virtual blocks the same
// 24 bytes as blocks.
func (c *VBBMS) NodeBytes() int { return 24 }

// NodeCount implements Policy.
func (c *VBBMS) NodeCount() int { return c.random.order.Len() + c.sequential.order.Len() }

// ListPages implements OccupancyReporter.
func (c *VBBMS) ListPages() map[string]int {
	return map[string]int{
		"random":     c.random.pageCount,
		"sequential": c.sequential.pageCount,
	}
}

// vbbmsListNames is the fixed OccupancyNames order, shared by all instances.
var vbbmsListNames = []string{"random", "sequential"}

// OccupancyNames implements OccupancySampler.
func (c *VBBMS) OccupancyNames() []string { return vbbmsListNames }

// AppendOccupancy implements OccupancySampler.
func (c *VBBMS) AppendOccupancy(dst []int) []int {
	return append(dst, c.random.pageCount, c.sequential.pageCount)
}

// Access implements Policy.
func (c *VBBMS) Access(req Request) Result {
	CheckRequest(req)
	c.buf.Reset()
	var res Result
	target := &c.random
	if req.Pages >= c.seqMin {
		target = &c.sequential
	}
	lpn := req.LPN
	for i := 0; i < req.Pages; i++ {
		if r, n := c.holder(lpn); r != nil {
			res.Hits++
			if r.lru {
				r.order.MoveToHead(n) // the FIFO region leaves order untouched
			}
		} else {
			res.Misses++
			if req.Write {
				for target.pageCount >= target.capacity {
					c.buf.Evictions = append(c.buf.Evictions, c.evictFrom(target))
				}
				c.insert(target, lpn)
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

// holder returns the region and virtual block holding a page, or nils. A
// page lives in at most one region, so a page re-written by a differently
// classified request still hits where it is.
func (c *VBBMS) holder(lpn int64) (*vbbmsRegion, *list.Node[*vbbmsBlock]) {
	for _, r := range [2]*vbbmsRegion{&c.random, &c.sequential} {
		if n := r.blocks.Get(lpn / r.vbSize); n != nil && n.Value.pages.has(lpn) {
			return r, n
		}
	}
	return nil, nil
}

// insert adds a page to its (aligned) virtual block, creating the block at
// the head when absent.
func (c *VBBMS) insert(r *vbbmsRegion, lpn int64) {
	vbID := lpn / r.vbSize
	n := r.blocks.Get(vbID)
	if n == nil {
		if len(r.free) > 0 {
			n = r.free[len(r.free)-1]
			r.free = r.free[:len(r.free)-1]
		} else {
			n = &list.Node[*vbbmsBlock]{Value: &vbbmsBlock{}}
		}
		vb := n.Value
		vb.vbID = vbID
		vb.pages.reset(vbID*r.vbSize, r.vbSize)
		r.order.PushHead(n)
		r.blocks.Put(vbID, n)
	}
	n.Value.pages.add(lpn)
	r.pageCount++
}

// evictFrom flushes the region's tail virtual block (LRU victim in the
// random region, oldest in the sequential region).
func (c *VBBMS) evictFrom(r *vbbmsRegion) Eviction {
	c.scanCost++
	n := r.order.PopTail()
	if n == nil {
		panic("cache: VBBMS evict on empty region")
	}
	vb := n.Value
	r.blocks.Delete(vb.vbID)
	mark := c.buf.Mark()
	c.buf.LPNs = vb.pages.appendLPNs(c.buf.LPNs)
	lpns := c.buf.Carve(mark)
	r.pageCount -= len(lpns)
	r.free = append(r.free, n)
	return Eviction{LPNs: lpns}
}

// Contains reports whether a page is buffered (tests).
func (c *VBBMS) Contains(lpn int64) bool {
	r, _ := c.holder(lpn)
	return r != nil
}

// RegionOf returns "random", "sequential" or "" for a page (tests).
func (c *VBBMS) RegionOf(lpn int64) string {
	switch r, _ := c.holder(lpn); r {
	case &c.random:
		return "random"
	case &c.sequential:
		return "sequential"
	default:
		return ""
	}
}
