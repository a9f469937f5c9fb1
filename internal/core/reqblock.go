// Package core implements Req-block, the paper's contribution: a DRAM
// write-buffer replacement scheme for SSDs that manages cached data at
// write-request granularity (§3, Algorithm 1).
//
// Every write request's pages form one "request block". Three linked lists
// sift blocks by size and hotness:
//
//   - IRL (Inserted Request List): every new request block starts here.
//   - SRL (Small Request List): a block of at most δ pages moves to the SRL
//     head when any of its pages is hit (Fig. 5b).
//   - DRL (Divided Request List): when a page of a *large* block (> δ
//     pages) is hit, the hit page is split off into a fresh block at the
//     DRL head (Fig. 5a); consecutive hit pages of the same request share
//     that block.
//
// Eviction compares the three tail blocks by the access-frequency estimate
// of Eq. 1, Freq = AccessCnt / (PageNum × (Tcur − Tinsert)), and evicts the
// lowest. A split victim whose original block still sits in IRL is merged
// with it and the union is evicted in one batch ("downgraded merging",
// Fig. 6), recovering spatial locality for the flush.
//
// Implementation note: the request path is allocation-free in steady
// state. Each buffered page is one pageNode — simultaneously the value of
// the global LPN index and an intrusive member of its block's page list —
// so hits, splits and evictions relink pointers instead of churning a
// map[int64]bool per block. Blocks and page nodes are pooled; a
// generation counter on each block keeps recycled memory from
// resurrecting stale origin links (downgraded merging must only merge
// with the *same* original block, not whatever block reuses its storage).
package core

import (
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/list"
	"repro/internal/vindex"
)

// DefaultDelta is the small-request bound the paper selects in its
// sensitivity study (§4.2.1): blocks of at most 5 pages are "small".
const DefaultDelta = 5

// listID identifies which of the three lists a block lives in.
type listID uint8

const (
	inIRL listID = iota
	inSRL
	inDRL
)

func (l listID) String() string {
	switch l {
	case inIRL:
		return "IRL"
	case inSRL:
		return "SRL"
	case inDRL:
		return "DRL"
	}
	return "?"
}

// pageNode is one buffered page: the value of the global LPN index and an
// intrusive node of its block's doubly linked page list.
type pageNode struct {
	lpn        int64
	blk        *reqBlock
	prev, next *pageNode
}

// reqBlock is one cached request block. The paper's Fig. 12 charges its
// list node 32 bytes: forward/backward pointers, page count, access count,
// insert time and the origin link.
type reqBlock struct {
	reqID      uint64    // identity of the originating write request
	pageHead   *pageNode // intrusive list of the pages currently held
	pageCnt    int
	accessCnt  int64 // hits since insertion, initialized to 1 (Eq. 1)
	insertTime int64 // Tinsert of Eq. 1, ns
	where      listID
	node       *list.Node[*reqBlock]
	// origin links a split (DRL) block back to the large block it was
	// divided from, enabling downgraded merging at eviction. It may go
	// stale (origin evicted, upgraded, or recycled); users must
	// re-validate against originGen and the block's current list.
	origin    *reqBlock
	originGen uint64
	// gen is bumped every time the block is returned to the pool, so a
	// stale origin pointer into recycled storage can be detected.
	gen      uint64
	nextFree *reqBlock // pool link
}

// pageNum returns the block's current page count (PageNum of Eq. 1).
func (b *reqBlock) pageNum() int { return b.pageCnt }

// addPage links a detached page node at the head of the block's page list.
func (b *reqBlock) addPage(pn *pageNode) {
	pn.blk = b
	pn.prev = nil
	pn.next = b.pageHead
	if b.pageHead != nil {
		b.pageHead.prev = pn
	}
	b.pageHead = pn
	b.pageCnt++
}

// removePage unlinks a page node from the block's page list.
func (b *reqBlock) removePage(pn *pageNode) {
	if pn.prev != nil {
		pn.prev.next = pn.next
	} else {
		b.pageHead = pn.next
	}
	if pn.next != nil {
		pn.next.prev = pn.prev
	}
	pn.prev, pn.next, pn.blk = nil, nil, nil
	b.pageCnt--
}

// Config carries Req-block's tunables; the zero value is not valid, use
// DefaultConfig.
type Config struct {
	// Delta is the small-request bound δ in pages.
	Delta int
	// Merge enables downgraded merging of split victims with their IRL
	// originals (Fig. 6). The ablation bench switches it off.
	Merge bool
	// Recency enables the (Tcur − Tinsert) term of Eq. 1. With it off the
	// victim score degrades to AccessCnt / PageNum (ablation).
	Recency bool
}

// DefaultConfig returns the paper's configuration: δ = 5, merging and the
// recency term enabled.
func DefaultConfig() Config {
	return Config{Delta: DefaultDelta, Merge: true, Recency: true}
}

// ReqBlock is the Req-block write buffer. It implements cache.Policy.
type ReqBlock struct {
	capacity  int
	cfg       Config
	index     cache.PageIndex[pageNode] // lpn -> its page node (node.blk = holder)
	irl       list.List[*reqBlock]
	srl       list.List[*reqBlock]
	drl       list.List[*reqBlock]
	listPages [3]int // buffered pages per list (Fig. 13 gauge)
	nextReq   uint64

	buf      cache.ResultBuffers
	freeBlk  *reqBlock // block pool
	freePage *pageNode // page-node pool

	sink cache.TransitionSink // list-transition annotations, nil = off

	// scoreBuf/candBuf back the vindex.BestF victim selection; struct
	// fields rather than locals so the slices never escape to the heap
	// (the request path is allocation-free in steady state).
	scoreBuf [3]float64
	candBuf  [3]*reqBlock
	scanCost int64
}

var (
	_ cache.Policy             = (*ReqBlock)(nil)
	_ cache.OccupancyReporter  = (*ReqBlock)(nil)
	_ cache.OccupancySampler   = (*ReqBlock)(nil)
	_ cache.TransitionSource   = (*ReqBlock)(nil)
	_ cache.VictimScanReporter = (*ReqBlock)(nil)
)

// New returns a Req-block buffer with the paper's default configuration.
func New(capacityPages int) *ReqBlock {
	return NewConfig(capacityPages, DefaultConfig())
}

// NewConfig returns a Req-block buffer with an explicit configuration.
func NewConfig(capacityPages int, cfg Config) *ReqBlock {
	cache.ValidateCapacity(capacityPages)
	if cfg.Delta < 1 {
		panic(fmt.Sprintf("core: delta %d, need >= 1", cfg.Delta))
	}
	return &ReqBlock{capacity: capacityPages, cfg: cfg}
}

// Name implements cache.Policy.
func (c *ReqBlock) Name() string { return "Req-block" }

// Len implements cache.Policy.
func (c *ReqBlock) Len() int { return c.index.Len() }

// CapacityPages implements cache.Policy.
func (c *ReqBlock) CapacityPages() int { return c.capacity }

// NodeBytes implements cache.Policy per the paper's Fig. 12 accounting.
func (c *ReqBlock) NodeBytes() int { return 32 }

// NodeCount implements cache.Policy.
func (c *ReqBlock) NodeCount() int {
	return c.irl.Len() + c.srl.Len() + c.drl.Len()
}

// Delta returns the configured small-request bound.
func (c *ReqBlock) Delta() int { return c.cfg.Delta }

// ListPages implements cache.OccupancyReporter: buffered pages per list.
func (c *ReqBlock) ListPages() map[string]int {
	return map[string]int{
		"IRL": c.listPages[inIRL],
		"SRL": c.listPages[inSRL],
		"DRL": c.listPages[inDRL],
	}
}

// reqBlockListNames is the fixed OccupancyNames order, shared by all
// instances.
var reqBlockListNames = []string{"IRL", "SRL", "DRL"}

// OccupancyNames implements cache.OccupancySampler.
func (c *ReqBlock) OccupancyNames() []string { return reqBlockListNames }

// AppendOccupancy implements cache.OccupancySampler.
func (c *ReqBlock) AppendOccupancy(dst []int) []int {
	return append(dst, c.listPages[inIRL], c.listPages[inSRL], c.listPages[inDRL])
}

// SetTransitionSink implements cache.TransitionSource: the sink receives
// one annotation per list transition (IRL→SRL upgrade, large-block split
// into the DRL, downgraded merge at eviction). All names are constant
// strings, so annotating stays allocation-free.
func (c *ReqBlock) SetTransitionSink(s cache.TransitionSink) { c.sink = s }

// listOf returns the list a block currently belongs to.
func (c *ReqBlock) listOf(id listID) *list.List[*reqBlock] {
	switch id {
	case inIRL:
		return &c.irl
	case inSRL:
		return &c.srl
	default:
		return &c.drl
	}
}

// newPageNode takes a page node from the pool, or allocates one.
func (c *ReqBlock) newPageNode(lpn int64) *pageNode {
	pn := c.freePage
	if pn != nil {
		c.freePage = pn.next
		pn.next = nil
	} else {
		pn = &pageNode{}
	}
	pn.lpn = lpn
	return pn
}

// freePageNode returns a detached page node to the pool.
func (c *ReqBlock) freePageNode(pn *pageNode) {
	pn.blk, pn.prev = nil, nil
	pn.next = c.freePage
	c.freePage = pn
}

// newBlock takes a block from the pool (or allocates one, together with
// its list node) and initializes it per Algorithm 1's create_req_blk.
func (c *ReqBlock) newBlock(reqID uint64, now int64, where listID) *reqBlock {
	blk := c.freeBlk
	if blk != nil {
		c.freeBlk = blk.nextFree
		blk.nextFree = nil
	} else {
		blk = &reqBlock{}
		blk.node = &list.Node[*reqBlock]{Value: blk}
	}
	blk.reqID = reqID
	blk.pageHead = nil
	blk.pageCnt = 0
	blk.accessCnt = 1
	blk.insertTime = now
	blk.where = where
	blk.origin = nil
	blk.originGen = 0
	return blk
}

// freeBlock returns a detached, empty block to the pool, bumping its
// generation so stale origin links to it can never validate again.
func (c *ReqBlock) freeBlock(blk *reqBlock) {
	blk.gen++
	blk.origin = nil
	blk.pageHead = nil
	blk.nextFree = c.freeBlk
	c.freeBlk = blk
}

// Access implements cache.Policy, following Algorithm 1's main routine
// page by page.
func (c *ReqBlock) Access(req cache.Request) cache.Result {
	cache.CheckRequest(req)
	c.buf.Reset()
	c.nextReq++
	reqID := c.nextReq
	var res cache.Result
	lpn := req.LPN
	for i := 0; i < req.Pages; i++ {
		if pn := c.index.Get(lpn); pn != nil {
			res.Hits++
			c.onHit(pn, reqID, req.Time)
		} else {
			res.Misses++
			if req.Write {
				for c.index.Len() >= c.capacity {
					c.buf.Evictions = append(c.buf.Evictions, c.evict(req.Time))
				}
				c.insertNew(lpn, reqID, req.Time)
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

// onHit applies Algorithm 1 lines 19-28: small blocks move to the SRL head;
// a hit page of a large block is split off into the DRL head block of the
// current request.
func (c *ReqBlock) onHit(pn *pageNode, reqID uint64, now int64) {
	blk := pn.blk
	blk.accessCnt++
	if blk.pageNum() <= c.cfg.Delta {
		// Small block (wherever it lives): upgrade to SRL head.
		c.moveBlock(blk, inSRL)
		return
	}
	// Large block: divide. Remove the hit page and re-home it in the DRL
	// head block belonging to the current request.
	dst := c.drlHeadFor(reqID, now, blk)
	if dst == blk {
		return // the page already sits in the current request's DRL block
	}
	if c.sink != nil {
		c.sink.OnListTransition(cache.ListTransition{
			LPN: pn.lpn, Pages: 1, From: blk.where.String(), To: dst.where.String(),
		})
	}
	c.removePageFromBlock(blk, pn)
	dst.addPage(pn)
	c.listPages[dst.where]++
}

// drlHeadFor returns the DRL head block if it belongs to the current
// request, otherwise creates one (Algorithm 1's create_req_blk). The new
// block records its origin (plus the origin's generation) for downgraded
// merging.
func (c *ReqBlock) drlHeadFor(reqID uint64, now int64, src *reqBlock) *reqBlock {
	if h := c.drl.Head(); h != nil && h.Value.reqID == reqID {
		return h.Value
	}
	blk := c.newBlock(reqID, now, inDRL)
	// Resolve the IRL block a split descends from: the source itself when
	// it lives in IRL, else the source's own origin (splitting a split).
	if src.where == inIRL {
		blk.origin, blk.originGen = src, src.gen
	} else {
		blk.origin, blk.originGen = src.origin, src.originGen
	}
	c.drl.PushHead(blk.node)
	return blk
}

// insertNew adds a missed write page to the IRL head block of the current
// request, creating it if the head belongs to another request.
func (c *ReqBlock) insertNew(lpn int64, reqID uint64, now int64) {
	var blk *reqBlock
	if h := c.irl.Head(); h != nil && h.Value.reqID == reqID {
		blk = h.Value
	} else {
		blk = c.newBlock(reqID, now, inIRL)
		c.irl.PushHead(blk.node)
	}
	pn := c.newPageNode(lpn)
	blk.addPage(pn)
	c.index.Put(lpn, pn)
	c.listPages[inIRL]++
}

// moveBlock relocates a block to the head of the target list, keeping the
// per-list page gauges consistent.
func (c *ReqBlock) moveBlock(blk *reqBlock, to listID) {
	from := blk.where
	if from == to {
		c.listOf(to).MoveToHead(blk.node)
		return
	}
	if c.sink != nil && blk.pageHead != nil {
		c.sink.OnListTransition(cache.ListTransition{
			LPN: blk.pageHead.lpn, Pages: blk.pageNum(), From: from.String(), To: to.String(),
		})
	}
	c.listOf(from).Remove(blk.node)
	c.listPages[from] -= blk.pageNum()
	blk.where = to
	c.listOf(to).PushHead(blk.node)
	c.listPages[to] += blk.pageNum()
}

// removePageFromBlock detaches one page from a block, recycling the block
// when it empties. The caller re-homes the page (or deletes it from the
// index).
func (c *ReqBlock) removePageFromBlock(blk *reqBlock, pn *pageNode) {
	blk.removePage(pn)
	c.listPages[blk.where]--
	if blk.pageNum() == 0 {
		c.listOf(blk.where).Remove(blk.node)
		c.freeBlock(blk)
	}
}

// freq computes Eq. 1 for a block at time now. A zero or negative age is
// clamped to one nanosecond so brand-new blocks score high rather than
// dividing by zero.
func (c *ReqBlock) freq(blk *reqBlock, now int64) float64 {
	age := now - blk.insertTime
	if !c.cfg.Recency {
		age = 1
	} else if age < 1 {
		age = 1
	}
	return float64(blk.accessCnt) / (float64(blk.pageNum()) * float64(age))
}

// evict implements Algorithm 1's get_victim plus the flush: the tail block
// with the minimum Freq across the three lists is evicted; a split victim
// is first merged with its original block if that block still sits in IRL
// (Fig. 6), and the union is flushed as one batch.
func (c *ReqBlock) evict(now int64) cache.Eviction {
	victim := c.pickVictim(now)
	if victim == nil {
		panic("core: evict on empty cache")
	}
	// Capture the origin link before the victim's storage is recycled.
	origin, originGen := victim.origin, victim.originGen
	fromDRL := victim.where == inDRL
	mark := c.buf.Mark()
	c.detachBlock(victim)
	if c.cfg.Merge && fromDRL {
		if o := origin; o != nil && o.gen == originGen && o.node.Attached() && o.where == inIRL {
			if c.sink != nil && o.pageHead != nil {
				c.sink.OnListTransition(cache.ListTransition{
					LPN: o.pageHead.lpn, Pages: o.pageNum(), From: o.where.String(), To: "merge",
				})
			}
			c.detachBlock(o)
		}
	}
	lpns := c.buf.Carve(mark)
	slices.Sort(lpns)
	return cache.Eviction{LPNs: lpns}
}

// pickVictim compares the three tail blocks by Eq. 1 and returns the
// lowest-frequency one via the shared vindex selector (first-wins on
// equal score). Ties prefer IRL, then DRL, then SRL — the candidate
// order — matching the design's bias toward keeping small hot blocks.
func (c *ReqBlock) pickVictim(now int64) *reqBlock {
	k := 0
	tails := [3]*list.Node[*reqBlock]{c.irl.Tail(), c.drl.Tail(), c.srl.Tail()}
	for _, t := range tails {
		if t == nil {
			continue
		}
		c.candBuf[k] = t.Value
		c.scoreBuf[k] = c.freq(t.Value, now)
		k++
	}
	c.scanCost += int64(k)
	if i := vindex.BestF(c.scoreBuf[:k]); i >= 0 {
		return c.candBuf[i]
	}
	return nil
}

// VictimScanCost implements cache.VictimScanReporter.
func (c *ReqBlock) VictimScanCost() int64 { return c.scanCost }

// detachBlock unlinks a block and all its pages from the cache, appending
// the page LPNs to the shared eviction buffer and recycling both the page
// nodes and the block itself.
func (c *ReqBlock) detachBlock(blk *reqBlock) {
	for pn := blk.pageHead; pn != nil; {
		next := pn.next
		c.buf.LPNs = append(c.buf.LPNs, pn.lpn)
		c.index.Delete(pn.lpn)
		c.freePageNode(pn)
		pn = next
	}
	c.listOf(blk.where).Remove(blk.node)
	c.listPages[blk.where] -= blk.pageCnt
	c.freeBlock(blk)
}

// EvictIdle implements cache.IdleEvictor: during idle time the same Eq. 1
// victim selection runs proactively, as long as the buffer is more than
// half full. Small hot SRL blocks keep their priority, so idle flushing
// drains exactly the cold large blocks the paper wants gone early
// (§4.2.4: "evicting more cold data pages earlier can make more room for
// hot data").
func (c *ReqBlock) EvictIdle(now int64) (cache.Eviction, bool) {
	if c.index.Len() <= c.capacity/2 {
		return cache.Eviction{}, false
	}
	c.buf.Reset()
	return c.evict(now), true
}

// Contains reports whether a page is buffered (tests).
func (c *ReqBlock) Contains(lpn int64) bool { return c.index.Get(lpn) != nil }

// WhereIs returns "IRL", "SRL", "DRL" or "" for a page (tests).
func (c *ReqBlock) WhereIs(lpn int64) string {
	pn := c.index.Get(lpn)
	if pn == nil {
		return ""
	}
	return pn.blk.where.String()
}

// BlockOf returns the page count and access count of the block holding a
// page (tests); ok is false when the page is absent.
func (c *ReqBlock) BlockOf(lpn int64) (pages int, accessCnt int64, ok bool) {
	pn := c.index.Get(lpn)
	if pn == nil {
		return 0, 0, false
	}
	return pn.blk.pageNum(), pn.blk.accessCnt, true
}

// CheckInvariants validates the cross-structure bookkeeping: every indexed
// page belongs to exactly one attached block, per-list page gauges match
// recounts, page totals match, and list structures are sound. Tests and
// property checks call it after every operation.
func (c *ReqBlock) CheckInvariants() error {
	if !c.irl.Validate() || !c.srl.Validate() || !c.drl.Validate() {
		return fmt.Errorf("core: list structure corrupt")
	}
	var gauge [3]int
	total := 0
	for id, l := range map[listID]*list.List[*reqBlock]{inIRL: &c.irl, inSRL: &c.srl, inDRL: &c.drl} {
		for n := l.Head(); n != nil; n = n.Next() {
			blk := n.Value
			if blk.where != id {
				return fmt.Errorf("core: block tagged %v found in %v", blk.where, id)
			}
			if blk.pageNum() == 0 {
				return fmt.Errorf("core: empty block left in %v", id)
			}
			if blk.node != n {
				return fmt.Errorf("core: block node back-pointer broken")
			}
			count := 0
			var prev *pageNode
			for pn := blk.pageHead; pn != nil; pn = pn.next {
				if pn.blk != blk {
					return fmt.Errorf("core: page %d back-pointer does not name its block", pn.lpn)
				}
				if pn.prev != prev {
					return fmt.Errorf("core: page list prev/next asymmetry at lpn %d", pn.lpn)
				}
				// The index holds one node per LPN, so this also
				// catches an LPN listed in two blocks.
				if c.index.Get(pn.lpn) != pn {
					return fmt.Errorf("core: index[%d] does not point at holder", pn.lpn)
				}
				prev = pn
				count++
				if count > blk.pageCnt {
					return fmt.Errorf("core: page list longer than pageCnt in %v", id)
				}
			}
			if count != blk.pageCnt {
				return fmt.Errorf("core: block pageCnt %d, recounted %d", blk.pageCnt, count)
			}
			gauge[id] += blk.pageNum()
			total += blk.pageNum()
		}
	}
	if total != c.index.Len() {
		return fmt.Errorf("core: page accounting: listed %d, index %d", total, c.index.Len())
	}
	for i, g := range gauge {
		if g != c.listPages[i] {
			return fmt.Errorf("core: listPages[%v] = %d, recounted %d", listID(i), c.listPages[i], g)
		}
	}
	if total > c.capacity {
		return fmt.Errorf("core: %d pages exceed capacity %d", total, c.capacity)
	}
	return nil
}
