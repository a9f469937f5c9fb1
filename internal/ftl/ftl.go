// Package ftl implements a page-level flash translation layer over the
// flash array: logical-to-physical mapping, write allocation, and greedy
// garbage collection, matching the "Page level" FTL scheme of the paper's
// Table 1.
//
// Two allocation modes exist because the cache policies under study differ
// exactly there:
//
//   - Striped (dynamic) allocation sends consecutive pages of a flush batch
//     to different channels, exploiting internal parallelism. This is what
//     page-level evictions (LRU et al.), VBBMS virtual blocks and Req-block
//     request blocks use.
//   - Block-bound allocation places a whole batch on one plane, back to
//     back in the same physical block(s). This models BPLRU, which flushes
//     a logical block onto a single SSD block and therefore serializes on
//     one channel (paper §4.2.2).
package ftl

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/flash"
)

// A translation entry holds its target plus one, so the zero entry means
// unmapped: a fresh FTL's tables need no fill, and the OS backs only the
// pages later writes touch. Call sites convert through entry and target
// and never do the arithmetic themselves.
//
// Precondition writes no entries either. The zero entries of the pages it
// fills translate through the aged extent instead (agedPPN, owner), until a
// read, write, trim or GC migration first touches the page.
const unmapped = int32(0)

// trimmed is the mapping entry of a trimmed aged LPN, where a zero entry
// would still translate through the aged extent. No target encodes to it.
const trimmed = int32(-1)

// entry encodes a target, an LPN or a PPN, as a translation entry.
func entry(target int64) int32 { return int32(target + 1) }

// target decodes a mapped translation entry.
func target(e int32) int64 { return int64(e) - 1 }

// agedExtent records what Precondition filled, so that the filled pages
// need no translation entries. With S stripe positions and s0 the stripe
// cursor at the fill, LPN i < n went to position (s0+i) mod S as the r-th
// LPN that position received, r = ⌊i/S⌋, and each position packed its LPNs
// PagesPerBlock at a time into the blocks it opened, from page 0. The fill
// opened those blocks round by round, one per position in stripe order
// from s0, so block k of the fill holds LPN ⌊k/S⌋·S·PagesPerBlock + k mod S
// at its page 0, and S such LPNs apart on each following page.
type agedExtent struct {
	n      int64   // LPNs 0..n-1 are aged
	blocks []int32 // the blocks the fill opened, in order
	first  []int32 // per block: entry of the aged LPN at its page 0; zero once erased, or never aged
}

// agedPPN translates an aged LPN, lpn < n, whose mapping entry is zero: it
// sits at page r mod PagesPerBlock of its position's block ⌊r/PagesPerBlock⌋.
// Pages fit in uint32 (newFTL bounds them to maxPages), whose division is
// the cheaper.
func (f *FTL) agedPPN(lpn int64) int64 {
	s, ppb, i := uint32(len(f.stripeOrder)), uint32(f.p.PagesPerBlock), uint32(lpn)
	r := i / s
	j := r / ppb
	b := f.aged.blocks[j*s+i-r*s]
	return f.p.PPN(int(b), int(r-j*ppb))
}

// resolve returns lpn's mapping entry, translating the zero entry of an
// aged LPN through the aged extent; it writes nothing back. Only an entry
// above unmapped maps.
func (f *FTL) resolve(lpn int64) int32 {
	e := f.mapping[lpn]
	if e == unmapped && lpn < f.aged.n {
		return entry(f.agedPPN(lpn))
	}
	return e
}

// owner returns the LPN a valid page holds: its reverse entry's target, or
// for a zero entry in an aged block, the aged LPN at its in-block page q,
// the block's first LPN plus q·S. It returns -1 when neither names one.
func (f *FTL) owner(ppn int64) int64 {
	if e := f.reverse[ppn]; e != unmapped {
		return target(e)
	}
	ppb := uint32(f.p.PagesPerBlock)
	first := f.aged.first[uint32(ppn)/ppb]
	if first == unmapped {
		return -1
	}
	return target(first) + int64(uint32(ppn)%ppb)*int64(len(f.stripeOrder))
}

// maxPages is the largest physical page count the translation tables
// address: an entry holds its target plus one in an int32.
const maxPages = math.MaxInt32

// Stats aggregates the FTL's activity counters.
type Stats struct {
	// HostPrograms counts pages programmed on behalf of host flushes.
	HostPrograms int64
	// HostReads counts pages read on behalf of host requests.
	HostReads int64
	// GCMigrations counts valid pages copied during garbage collection.
	GCMigrations int64
	// GCRuns counts garbage-collection invocations (one victim each).
	GCRuns int64
	// Erases counts block erases.
	Erases int64
	// Trims counts logical pages discarded via Trim.
	Trims int64
	// ProgramRetries counts page programs re-issued to a freshly allocated
	// page after an injected program failure.
	ProgramRetries int64
	// RetiredBlocks counts blocks permanently removed from circulation
	// (erase failures, grown bad blocks).
	RetiredBlocks int64
	// DegradedEntries counts transitions into read-only degraded mode
	// (0 or 1; a counter for symmetry with the other metrics).
	DegradedEntries int64
	// GCPauseNs is the cumulative die-busy time GC collections added to
	// their victims' chips (migrations plus erase, beyond any backlog
	// already queued there) — the foreground-visible GC pause total. It is
	// accumulated whether or not a Tap is attached, so attaching telemetry
	// never changes the stat.
	GCPauseNs int64
}

// Tap receives timing observations from the FTL's operation paths. It is
// the telemetry plane's window into per-phase flash behavior: host page
// programs and reads, block erases, and whole GC victim collections. All
// times are simulated nanoseconds; latencies include die/channel queueing,
// which is exactly what tail-latency distributions care about.
//
// A nil tap is the default and costs one predictable branch per operation;
// tap implementations must not mutate FTL state (they observe a
// deterministic simulation and must not perturb it) and must not retain
// references past the call.
type Tap interface {
	// TapProgram reports one host page program: issued at `issue`, durable
	// at `done`.
	TapProgram(issue, done int64)
	// TapRead reports one host page read: issued at `issue`, data at the
	// controller at `done`.
	TapRead(issue, done int64)
	// TapErase reports one block erase: issued at `issue`, complete at
	// `done`.
	TapErase(issue, done int64)
	// TapGC reports one GC victim collection: `pause` is the die-busy time
	// the collection added to the victim's chip (migrations plus erase,
	// beyond any backlog already queued there) and `pagesMoved` the valid
	// pages migrated.
	TapGC(pause int64, pagesMoved int)
	// TapGCPreempt reports a scheduled GC slice (or paced burst) ending
	// with a victim collection still in flight; pagesMoved is its progress
	// so far (see gcsched.go).
	TapGCPreempt(now int64, pagesMoved int)
	// TapGCResume reports an in-flight collection being picked back up.
	TapGCResume(now int64, pagesMoved int)
}

// FTL is a page-level flash translation layer bound to one flash array and
// timeline. It is not safe for concurrent use; the simulator is
// single-threaded by design (deterministic replay).
type FTL struct {
	p   flash.Params
	arr *flash.Array
	tl  *flash.Timeline

	mapping []int32 // LPN -> entry(PPN), or trimmed; newFTL bounds the pages to maxPages
	reverse []int32 // PPN -> entry(LPN), needed to remap pages during GC
	aged    agedExtent

	freeBlocks  [][]int32   // per plane: stack of erased blocks
	wear        []wearIndex // per plane: where the least-worn free blocks are
	activeBlock []int32     // per plane: block accepting host programs, -1 if none
	gcActive    []int32     // per plane: block accepting GC migrations, -1 if none
	channel     []int       // per plane: its channel
	chip        []int       // per plane: its global chip
	stripeOrder []int32     // plane visit order for striped allocation (channels first)
	stripeNext  int         // cursor into stripeOrder
	boundNext   int         // cursor into stripeOrder for block-bound flushes
	chanCursor  []int       // per channel: plane rotation for channel-bound flushes

	gcLow      int  // free-block count per plane that triggers GC
	wearLevel  bool // pick least-erased free blocks (dynamic wear leveling)
	separateGC bool // keep GC migrations out of the host write blocks

	// Fault plane (all zero/nil on a fault-free device).
	retryLimit    int            // program retries per logical page write
	reserveBudget int            // retirements tolerated before read-only
	degraded      bool           // read-only mode
	checker       *fault.Checker // invariant checker, run after recoveries
	pendingCheck  bool           // a recovery happened in the current op

	// pickHook, when set, sees every block open: the plane, its free list
	// and the position takeFree chose (tests check the wear index with it).
	pickHook func(plane int, free []int32, pick int)
	// victimHook, when set, sees every GC victim choice before it is acted
	// on: the choosing site, the plane (-1 for startJob's pick across
	// planes), startJob's budget and the block chosen, -1 for none (tests
	// check the choice against the per-block reference scans with it).
	victimHook func(site victimSite, plane int, budgetNs int64, victim int)

	tap Tap // timing observations, nil unless telemetry is attached

	// Preemptible GC scheduler (see gcsched.go; all zero when disabled).
	gcSched   bool         // scheduler enabled
	gcSoftLow int          // free-block watermark below which pacing engages
	gcPace    int          // copy steps piggybacked per host program
	job       gcJob        // the single in-flight victim collection
	sched     GCSchedStats // scheduler counters

	stats Stats
}

// New builds an FTL over a fresh array and timeline for the given geometry,
// with dynamic wear leveling and GC stream separation enabled.
func New(p flash.Params) (*FTL, error) {
	return NewConfig(p, true)
}

// NewConfig builds an FTL with explicit wear-leveling behavior (GC stream
// separation stays on; see NewConfigFull for the ablation).
func NewConfig(p flash.Params, wearLevel bool) (*FTL, error) {
	return NewConfigFull(p, wearLevel, true)
}

// NewConfigFull builds an FTL with explicit wear-leveling and GC-stream
// separation behavior.
func NewConfigFull(p flash.Params, wearLevel, separateGC bool) (*FTL, error) {
	f, err := newFTL(p)
	if err != nil {
		return nil, err
	}
	f.wearLevel = wearLevel
	f.separateGC = separateGC
	return f, nil
}

func newFTL(p flash.Params) (*FTL, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n := p.PhysicalPages(); n > maxPages {
		return nil, fmt.Errorf("ftl: %d physical pages, more than the %d that int32 translation entries address",
			n, maxPages)
	}
	arr, err := flash.NewArray(p)
	if err != nil {
		return nil, err
	}
	f := &FTL{
		p:       p,
		arr:     arr,
		tl:      flash.NewTimeline(p),
		mapping: make([]int32, p.LogicalPages()),
		reverse: make([]int32, p.PhysicalPages()),
		aged:    agedExtent{first: make([]int32, p.Blocks())},
	}
	planes := p.Planes()
	f.freeBlocks = make([][]int32, planes)
	f.wear = make([]wearIndex, planes)
	f.activeBlock = make([]int32, planes)
	f.gcActive = make([]int32, planes)
	f.channel = make([]int, planes)
	f.chip = make([]int, planes)
	for pl := 0; pl < planes; pl++ {
		first := p.FirstBlockOfPlane(pl)
		f.channel[pl] = p.ChannelOfBlock(first)
		f.chip[pl] = p.ChipOfBlock(first)
		blocks := make([]int32, 0, p.BlocksPerPlane)
		// Push in reverse so blocks are consumed in ascending order.
		for b := p.BlocksPerPlane - 1; b >= 0; b-- {
			blocks = append(blocks, int32(first+b))
		}
		f.freeBlocks[pl] = blocks
		f.activeBlock[pl] = -1
		f.gcActive[pl] = -1
		f.reindex(pl)
	}
	// Visit planes cycling across channels first so that consecutive pages
	// of a striped batch land on distinct channels.
	f.stripeOrder = make([]int32, 0, planes)
	for rank := 0; rank < p.ChipsPerChannel*p.PlanesPerChip; rank++ {
		for ch := 0; ch < p.Channels; ch++ {
			chip := ch*p.ChipsPerChannel + rank/p.PlanesPerChip
			plane := chip*p.PlanesPerChip + rank%p.PlanesPerChip
			f.stripeOrder = append(f.stripeOrder, int32(plane))
		}
	}
	f.chanCursor = make([]int, p.Channels)
	f.gcLow = int(float64(p.BlocksPerPlane) * p.GCThreshold)
	if f.gcLow < 1 {
		f.gcLow = 1
	}
	return f, nil
}

// Params returns the device geometry.
func (f *FTL) Params() flash.Params { return f.p }

// Array exposes the underlying flash array (read-only use expected).
func (f *FTL) Array() *flash.Array { return f.arr }

// PreWear ages the array as flash.Array.PreWear does and re-indexes the
// free lists, whose least-worn blocks the new erase counts move. Devices
// are pre-worn through here, never through the array directly.
func (f *FTL) PreWear(seed uint64, erases, jitter int) {
	f.arr.PreWear(seed, erases, jitter)
	for pl := range f.freeBlocks {
		f.reindex(pl)
	}
}

// Timeline exposes the shared timing model.
func (f *FTL) Timeline() *flash.Timeline { return f.tl }

// Stats returns a copy of the activity counters.
func (f *FTL) Stats() Stats {
	s := f.stats
	s.Erases = f.arr.Erases()
	return s
}

// GCPauseNs returns the cumulative foreground-visible GC pause without
// materializing a full Stats copy; the hot attribution path in the engine
// diffs it around every dispatch.
func (f *FTL) GCPauseNs() int64 {
	return f.stats.GCPauseNs
}

// EnableFaults attaches a fault injector to the flash array and arms the
// FTL's recovery paths: bounded write retry, bad-block retirement against
// the reserved-block budget, and read-only degradation when the budget is
// exhausted. Limits come from the injector's config; zeros select defaults
// (8 retries, 1/64 of physical blocks reserved, at least 4).
func (f *FTL) EnableFaults(inj *fault.Injector) {
	f.arr.SetInjector(inj)
	cfg := inj.Config()
	f.retryLimit = cfg.RetryLimit
	if f.retryLimit <= 0 {
		f.retryLimit = 8
	}
	f.reserveBudget = cfg.ReserveBlocks
	if f.reserveBudget <= 0 {
		f.reserveBudget = f.p.Blocks() / 64
		if f.reserveBudget < 4 {
			f.reserveBudget = 4
		}
	}
}

// SetTap attaches a timing tap (nil detaches). Taps observe; they cannot
// alter the simulation, so attaching one keeps every metric bit-identical.
func (f *FTL) SetTap(t Tap) { f.tap = t }

// SetChecker attaches an invariant checker that runs after every operation
// in which a fault recovery occurred. A violation fails the write that
// surfaced it; the checker also retains the first failure for end-of-run
// reporting.
func (f *FTL) SetChecker(c *fault.Checker) { f.checker = c }

// Degraded reports whether the device has entered read-only mode.
func (f *FTL) Degraded() bool { return f.degraded }

// ForceDegrade trips read-only mode directly, without exhausting the
// reserve budget: every subsequent write path returns fault.ErrReadOnly
// while reads keep working. The service layer uses it as an operational
// fuse (admin-triggered read-only drills) and tests use it to reach the
// degraded state without scripting a precise fault sequence. Idempotent.
func (f *FTL) ForceDegrade() {
	if !f.degraded {
		f.degraded = true
		f.stats.DegradedEntries++
	}
}

// retireBlock accounts a block permanently removed from circulation (the
// array has already marked it bad) and degrades to read-only mode when the
// reserve budget is exhausted.
func (f *FTL) retireBlock(block int) {
	_ = block
	f.stats.RetiredBlocks++
	f.pendingCheck = true
	if !f.degraded && f.stats.RetiredBlocks > int64(f.reserveBudget) {
		f.degraded = true
		f.stats.DegradedEntries++
	}
}

// flushCheck runs the invariant checker if a recovery happened during the
// operation that is about to return.
func (f *FTL) flushCheck() error {
	if !f.pendingCheck {
		return nil
	}
	f.pendingCheck = false
	if f.checker == nil {
		return nil
	}
	if err := f.checker.Check(); err != nil {
		return fmt.Errorf("ftl: post-recovery invariant violation: %w", err)
	}
	return nil
}

// Mapped reports whether an LPN currently has a physical translation.
func (f *FTL) Mapped(lpn int64) bool {
	e := f.mapping[lpn]
	return e > unmapped || e == unmapped && lpn < f.aged.n
}

// LogicalPages returns the host-visible page count.
func (f *FTL) LogicalPages() int64 { return int64(len(f.mapping)) }

func (f *FTL) checkLPN(lpn int64) error {
	if lpn < 0 || lpn >= int64(len(f.mapping)) {
		return fmt.Errorf("ftl: lpn %d out of range [0,%d)", lpn, len(f.mapping))
	}
	return nil
}

// allocPage hands out the next programmable PPN, preferring the requested
// plane, and returns it with the plane it landed on. It pulls a fresh block
// when the active one fills and runs GC beforehand when the plane is low on
// free blocks (gcAllowed breaks recursion when GC itself allocates). If the
// plane is exhausted even after GC — dynamic allocation lets valid data
// concentrate beyond one plane's physical share — it falls back to the
// plane with the most free blocks, as real dynamic-allocation FTLs do.
func (f *FTL) allocPage(now int64, plane int, gcAllowed bool) (int64, int, int64, error) {
	stream := streamHost
	if !gcAllowed {
		// GC migrations come through the gcAllowed=false path; keep their
		// data in separate blocks (hot/cold stream separation: survivor
		// pages are colder than fresh host writes, and mixing them spreads
		// invalidations across more blocks, raising write amplification).
		if f.separateGC {
			stream = streamGC
		}
	}
	if gcAllowed {
		if f.gcSched {
			f.paceGC(now, plane)
		}
		now = f.maybeGC(now, plane)
	}
	ppn, ok := f.allocOnPlane(plane, stream)
	if !ok {
		fallback := f.richestPlane()
		if gcAllowed {
			now = f.maybeGC(now, fallback)
		}
		ppn, ok = f.allocOnPlane(fallback, stream)
		if !ok {
			if f.degraded {
				return 0, 0, now, fmt.Errorf("ftl: %w", fault.ErrReadOnly)
			}
			return 0, 0, now, fmt.Errorf("ftl: planes %d and %d out of free blocks", plane, fallback)
		}
		plane = fallback
	}
	return ppn, plane, now, nil
}

// Write streams for hot/cold separation.
const (
	streamHost = iota
	streamGC
)

// allocOnPlane programs the next page of the plane's active block, opening a
// new block from the free list when needed. It reports false when the plane
// has neither an open active block nor free blocks.
//
// Opening a new block applies dynamic wear leveling: the least-erased free
// block is chosen, so erase cycles spread evenly instead of recycling the
// same few blocks (NewConfig can disable this for the ablation bench).
//
// An injected program failure consumes the failed page; the write is
// retried on the next freshly allocated page (possibly in a new block), up
// to the configured retry limit. On a fault-free device the loop body runs
// exactly once, preserving bit-identical behavior.
func (f *FTL) allocOnPlane(plane, stream int) (int64, bool) {
	for attempt := 0; ; {
		slot := &f.activeBlock[plane]
		if stream == streamGC {
			slot = &f.gcActive[plane]
			// Graceful degradation: holding a second frontier block per plane
			// is a luxury small or nearly-full planes cannot afford. If the GC
			// stream would need a fresh block while at most one remains, merge
			// into the host stream instead of deadlocking the plane.
			if a := *slot; (a < 0 || f.arr.BlockFull(int(a))) && len(f.freeBlocks[plane]) <= 1 {
				slot = &f.activeBlock[plane]
			}
		}
		active := *slot
		if active < 0 || f.arr.BlockFull(int(active)) {
			if len(f.freeBlocks[plane]) == 0 {
				return 0, false
			}
			active = f.takeFree(plane)
			*slot = active
		}
		ppn, err := f.arr.Program(int(active))
		if err == nil {
			return ppn, true
		}
		if errors.Is(err, fault.ErrProgramFail) && attempt < f.retryLimit {
			attempt++
			f.stats.ProgramRetries++
			f.pendingCheck = true
			continue
		}
		return 0, false
	}
}

// wearIndex locates a plane's least-worn free blocks without scanning the
// free list: their erase count, how many free blocks share it, and a
// cursor below which no free-list position holds one.
type wearIndex struct {
	min   int
	count int
	from  int
}

// reindex rebuilds a plane's wear index from its free list.
func (f *FTL) reindex(plane int) {
	var w wearIndex
	for i, b := range f.freeBlocks[plane] {
		switch e := f.arr.EraseCount(int(b)); {
		case w.count == 0 || e < w.min:
			w = wearIndex{min: e, count: 1, from: i}
		case e == w.min:
			w.count++
		}
	}
	f.wear[plane] = w
}

// takeFree removes the block to open next from a plane's non-empty free
// list. With wear leveling that is the least-erased free block: the last
// one if it is at the minimum, otherwise the first at the minimum in
// free-list order. Without, it is the last one.
//
// Taking the first block at the minimum swaps the last block, which is
// above the minimum, into its slot, so the cursor only moves forward until
// the minimum's blocks run out and the index is rebuilt: O(1) amortized.
func (f *FTL) takeFree(plane int) int32 {
	fb := f.freeBlocks[plane]
	pick := len(fb) - 1
	if f.wearLevel {
		w := &f.wear[plane]
		if f.arr.EraseCount(int(fb[pick])) != w.min {
			pick = w.from
			for f.arr.EraseCount(int(fb[pick])) != w.min {
				pick++
			}
			w.from = pick + 1
		}
		w.count--
	}
	if f.pickHook != nil {
		f.pickHook(plane, fb, pick)
	}
	b := fb[pick]
	fb[pick] = fb[len(fb)-1]
	f.freeBlocks[plane] = fb[:len(fb)-1]
	if f.wearLevel && f.wear[plane].count == 0 {
		f.reindex(plane)
	}
	return b
}

// putFree returns an erased block to its plane's free list.
func (f *FTL) putFree(plane int, b int32) {
	fb := f.freeBlocks[plane]
	f.freeBlocks[plane] = append(fb, b)
	if !f.wearLevel {
		return
	}
	switch w, e := &f.wear[plane], f.arr.EraseCount(int(b)); {
	case w.count == 0 || e < w.min:
		*w = wearIndex{min: e, count: 1, from: len(fb)}
	case e == w.min:
		w.count++
	}
}

// richestPlane returns the plane with the most free blocks, counting a
// non-full active block as headroom.
func (f *FTL) richestPlane() int {
	best, bestFree := 0, -1
	for pl := range f.freeBlocks {
		free := len(f.freeBlocks[pl]) * f.p.PagesPerBlock
		if a := f.activeBlock[pl]; a >= 0 {
			free += f.arr.FreePagesInBlock(int(a))
		}
		if a := f.gcActive[pl]; a >= 0 {
			free += f.arr.FreePagesInBlock(int(a))
		}
		if free > bestFree {
			best, bestFree = pl, free
		}
	}
	return best
}

// BatchTiming reports when a flush batch releases its buffer frames and
// when it is durable on flash.
//
// A write buffer frees a frame as soon as the page's data has crossed the
// channel into the chip register (Transferred); the cell program continues
// on the die and completes at Durable. The host request that triggered the
// flush blocks only until Transferred — the paper's response-time effects
// come from the transfer serialization (one channel vs eight) plus the die
// occupancy that delays subsequent reads and flushes.
type BatchTiming struct {
	// Transferred is when the last page of the batch left the controller.
	Transferred int64
	// Durable is when the last page finished programming.
	Durable int64
}

// writeOne performs the mapping update and timed program of one host page
// onto the given plane, returning the channel-transfer end and the
// durability time.
func (f *FTL) writeOne(now int64, lpn int64, plane int) (int64, int64, error) {
	if err := f.checkLPN(lpn); err != nil {
		return 0, 0, err
	}
	ppn, plane, now, err := f.allocPage(now, plane, true)
	if err != nil {
		return 0, 0, err
	}
	if old := f.mapping[lpn]; old > unmapped {
		oldPPN := target(old)
		if err := f.arr.Invalidate(oldPPN); err != nil {
			return 0, 0, err
		}
		f.reverse[oldPPN] = unmapped
	} else if old == unmapped && lpn < f.aged.n {
		// The first rewrite of an aged LPN: its page's reverse entry is
		// zero already.
		if err := f.arr.Invalidate(f.agedPPN(lpn)); err != nil {
			return 0, 0, err
		}
	}
	f.mapping[lpn] = entry(ppn)
	f.reverse[ppn] = entry(lpn)
	xfer, done := f.tl.Program(now, f.channel[plane], f.chip[plane])
	f.stats.HostPrograms++
	if f.tap != nil {
		f.tap.TapProgram(now, done)
	}
	return xfer, done, nil
}

// WriteStriped flushes a batch of logical pages using dynamic allocation:
// page i of the batch goes to stripe plane (cursor+i), so an 8-channel
// device programs 8 pages concurrently.
func (f *FTL) WriteStriped(now int64, lpns []int64) (BatchTiming, error) {
	if f.degraded {
		return BatchTiming{}, fmt.Errorf("ftl: %w", fault.ErrReadOnly)
	}
	t := BatchTiming{Transferred: now, Durable: now}
	for _, lpn := range lpns {
		plane := int(f.stripeOrder[f.stripeNext])
		if f.stripeNext++; f.stripeNext == len(f.stripeOrder) {
			f.stripeNext = 0
		}
		xfer, done, err := f.writeOne(now, lpn, plane)
		if err != nil {
			return BatchTiming{}, err
		}
		t.Transferred = max(t.Transferred, xfer)
		t.Durable = max(t.Durable, done)
	}
	if err := f.flushCheck(); err != nil {
		return BatchTiming{}, err
	}
	return t, nil
}

// WriteBlockBound flushes a batch onto a single plane, back to back in the
// same physical block(s): BPLRU's "flush the logical block onto one SSD
// block". Each call advances to the next plane so successive block flushes
// still spread wear, but pages within one call share a channel.
func (f *FTL) WriteBlockBound(now int64, lpns []int64) (BatchTiming, error) {
	if f.degraded {
		return BatchTiming{}, fmt.Errorf("ftl: %w", fault.ErrReadOnly)
	}
	t := BatchTiming{Transferred: now, Durable: now}
	if len(lpns) == 0 {
		return t, nil
	}
	plane := int(f.stripeOrder[f.boundNext])
	f.boundNext = (f.boundNext + 1) % len(f.stripeOrder)
	for _, lpn := range lpns {
		xfer, done, err := f.writeOne(now, lpn, plane)
		if err != nil {
			return BatchTiming{}, err
		}
		t.Transferred = max(t.Transferred, xfer)
		t.Durable = max(t.Durable, done)
	}
	if err := f.flushCheck(); err != nil {
		return BatchTiming{}, err
	}
	return t, nil
}

// WriteOnChannel flushes a batch onto the planes of one channel, rotating
// among that channel's chips. ECR's eviction decisions assume page→channel
// affinity, so its flushes are pinned here instead of striping everywhere.
func (f *FTL) WriteOnChannel(now int64, lpns []int64, channel int) (BatchTiming, error) {
	if f.degraded {
		return BatchTiming{}, fmt.Errorf("ftl: %w", fault.ErrReadOnly)
	}
	t := BatchTiming{Transferred: now, Durable: now}
	if channel < 0 || channel >= f.p.Channels {
		return BatchTiming{}, fmt.Errorf("ftl: channel %d out of range", channel)
	}
	planesPerChannel := f.p.ChipsPerChannel * f.p.PlanesPerChip
	for i, lpn := range lpns {
		plane := channel*planesPerChannel + (f.chanCursor[channel]+i)%planesPerChannel
		xfer, done, err := f.writeOne(now, lpn, plane)
		if err != nil {
			return BatchTiming{}, err
		}
		t.Transferred = max(t.Transferred, xfer)
		t.Durable = max(t.Durable, done)
	}
	f.chanCursor[channel] = (f.chanCursor[channel] + len(lpns)) % planesPerChannel
	if err := f.flushCheck(); err != nil {
		return BatchTiming{}, err
	}
	return t, nil
}

// Read services a batch of logical page reads and returns the time the last
// page arrives at the controller. Pages that were never written (cold data
// from before the trace started) are charged a read on the plane they would
// stripe to, mirroring SSDsim's assumption that pre-trace data exists on
// flash.
func (f *FTL) Read(now int64, lpns []int64) (int64, error) {
	var last int64 = now
	pagesPerPlane := f.p.BlocksPerPlane * f.p.PagesPerBlock
	for _, lpn := range lpns {
		if err := f.checkLPN(lpn); err != nil {
			return 0, err
		}
		var plane int
		e := f.mapping[lpn]
		if e == unmapped && lpn < f.aged.n {
			// The first read of an aged LPN writes its entry back.
			e = entry(f.agedPPN(lpn))
			f.mapping[lpn] = e
		}
		if e > unmapped {
			ppn := target(e)
			if err := f.arr.Read(ppn); err != nil {
				return 0, err
			}
			plane = int(ppn) / pagesPerPlane
		} else {
			// Deterministic pseudo-location for pre-trace data.
			plane = int(f.stripeOrder[int(lpn)%len(f.stripeOrder)])
		}
		done := f.tl.Read(now, f.channel[plane], f.chip[plane])
		f.stats.HostReads++
		if f.tap != nil {
			f.tap.TapRead(now, done)
		}
		last = max(last, done)
	}
	return last, nil
}

// Trim discards logical pages: their physical copies are invalidated and
// the translations dropped, so GC reclaims the space without migrating
// them. Trimming an unmapped page is a no-op, as in the ATA/NVMe
// specifications. Trim is a metadata operation and takes no simulated
// time (real devices execute it asynchronously).
func (f *FTL) Trim(lpns []int64) error {
	for _, lpn := range lpns {
		if err := f.checkLPN(lpn); err != nil {
			return err
		}
		e := f.resolve(lpn)
		if e <= unmapped {
			continue
		}
		ppn := target(e)
		if err := f.arr.Invalidate(ppn); err != nil {
			return err
		}
		f.mapping[lpn] = unmapped
		if lpn < f.aged.n {
			f.mapping[lpn] = trimmed
		}
		f.reverse[ppn] = unmapped
		f.stats.Trims++
	}
	return nil
}

// Precondition maps the first fraction of the logical space sequentially,
// filling flash as an aged device would be, without charging any simulated
// time and without touching the activity counters. Replaying a trace
// against a preconditioned device makes GC behave realistically from the
// first request instead of after a long fill phase.
//
// The FTL must be fresh: no page programmed, no block retired, no fault
// injector; any other FTL gets an error. There the host-write allocator
// would never collect garbage (no page is invalid) nor fall back to another
// plane (no plane receives more than its capacity), so the fill skips it:
// each LPN goes to the stripe plane WriteStriped would pick, blocks open
// through takeFree in the same wear-levelled order, and each block's run is
// programmed in one step, leaving the array, free lists and frontiers as
// page-by-page writes would. It writes no translation entry: it records the
// aged extent, through which the filled pages translate, in O(blocks).
func (f *FTL) Precondition(fraction float64) error {
	if fraction < 0 || fraction > 1 {
		return fmt.Errorf("ftl: precondition fraction %v out of [0,1]", fraction)
	}
	if f.arr.Programs() != 0 || f.arr.BadBlocks() != 0 {
		return fmt.Errorf("ftl: precondition needs a fresh device, not one with %d pages programmed and %d blocks retired",
			f.arr.Programs(), f.arr.BadBlocks())
	}
	n := int64(float64(f.LogicalPages()) * fraction)
	s, ppb := int64(len(f.stripeOrder)), int64(f.p.PagesPerBlock)
	f.aged.blocks = make([]int32, 0, (n+ppb-1)/ppb+s)
	for k := int64(0); ; k++ {
		// Block k opens for the LPN at its page 0; its position receives
		// that LPN and every S-th one after it, up to n.
		lpn := k/s*s*ppb + k%s
		if lpn >= n {
			break
		}
		run := min((n-1-lpn)/s+1, ppb)
		plane := int(f.stripeOrder[(int64(f.stripeNext)+k)%s])
		block := f.takeFree(plane)
		if _, err := f.arr.ProgramRun(int(block), int(run)); err != nil {
			return fmt.Errorf("ftl: precondition at lpn %d: %w", lpn, err)
		}
		f.activeBlock[plane] = block
		f.aged.blocks = append(f.aged.blocks, block)
		f.aged.first[block] = entry(lpn)
	}
	f.aged.n = n
	f.stripeNext = int((int64(f.stripeNext) + n) % s)
	return nil
}

// maybeGC collects garbage on a plane until its free-block count is back at
// the threshold, one victim at a time, each run to completion through the
// scheduler's step code (stepJob, gcsched.go). It returns the (possibly
// advanced) time after which new programs may be issued: GC work occupies
// the chip, so the caller's subsequent programs are delayed by the timeline
// itself; the returned time equals the input time (GC is asynchronous with
// respect to the host clock but synchronous on the chip resource).
//
// A victim is the scheduler's job parked on this plane, adopted first so
// its excluded victim re-enters circulation, or else the plane's greedy
// victim: the full block with the fewest valid pages. A full frontier block
// is a candidate like any other full block, since a plane whose free blocks
// are gone may have nothing else to reclaim; open and retired blocks never
// are. A job parked on another plane is left alone.
//
// Each completed round erases one victim and reclaims at least one invalid
// page, so the loop terminates: either the free pool recovers or no victim
// with invalid pages remains. A single round may be block-neutral
// (migrations filled the GC frontier), which is why no round must grow the
// free count. A victim whose erase fails retires instead of freeing: the
// candidate pool shrank, and the loop re-selects the next-best victim. An
// abandoned adoption goes on to the greedy rounds; a greedy round with no
// place for a page ends the loop and, like one that found no victim, lets
// allocation fail upstream.
func (f *FTL) maybeGC(now int64, plane int) int64 {
	for len(f.freeBlocks[plane]) < f.gcLow && !f.degraded {
		if f.job.active && f.job.plane == plane {
			// Mandatory pressure on the parked job's plane: adopt it.
			f.noteResume(now)
			for f.job.active {
				f.advanceJob(now)
			}
			continue
		}
		victim, _ := f.arr.GreedyVictim(plane, -1, -1)
		if f.victimHook != nil {
			f.victimHook(victimGreedy, plane, 0, victim)
		}
		if victim < 0 {
			break // every candidate is fully valid
		}
		j := gcJob{active: true, plane: plane, victim: victim, chip: f.chip[plane]}
		charged, progress := f.stats.GCPauseNs, false
		for j.active {
			_, progress = f.stepJob(&j, now)
		}
		if !progress {
			// An abandoned greedy round charges no pause; its copies stand.
			f.stats.GCPauseNs = charged
			break
		}
		if f.gcSched {
			f.sched.VictimsMandatory++
		}
	}
	return now
}

// CheckInvariants validates mapping/reverse consistency, both resolved
// through the aged extent, the array's physical invariants, the retirement
// rules (no LPN maps into a retired block, the free lists hold only healthy
// erased blocks), and the free-page accounting per plane. It writes
// nothing. Run by tests and, via fault.Checker, after every fault recovery.
func (f *FTL) CheckInvariants() error {
	if err := f.arr.CheckInvariants(); err != nil {
		return err
	}
	var mapped int64
	for lpn := range f.mapping {
		e := f.resolve(int64(lpn))
		if e < unmapped && (e != trimmed || int64(lpn) >= f.aged.n) {
			return fmt.Errorf("ftl: lpn %d holds entry %d", lpn, e)
		}
		if e <= unmapped {
			continue
		}
		mapped++
		ppn := target(e)
		if f.arr.State(ppn) != flash.PageValid {
			return fmt.Errorf("ftl: lpn %d maps to non-valid ppn %d", lpn, ppn)
		}
		if f.arr.IsBad(f.p.BlockOfPPN(ppn)) {
			return fmt.Errorf("ftl: lpn %d maps into retired block %d", lpn, f.p.BlockOfPPN(ppn))
		}
		if owner := f.owner(ppn); owner != int64(lpn) {
			return fmt.Errorf("ftl: ppn %d holds lpn %d, want %d", ppn, owner, lpn)
		}
	}
	var valid int64
	for ppn, e := range f.reverse {
		if f.arr.State(int64(ppn)) != flash.PageValid {
			if e != unmapped {
				return fmt.Errorf("ftl: non-valid ppn %d keeps reverse entry %d", ppn, e)
			}
			continue
		}
		valid++
		lpn := f.owner(int64(ppn))
		if lpn < 0 || lpn >= f.LogicalPages() {
			return fmt.Errorf("ftl: valid ppn %d holds no lpn (%d)", ppn, lpn)
		}
		if e := f.resolve(lpn); e != entry(int64(ppn)) {
			return fmt.Errorf("ftl: lpn %d resolves to entry %d, want ppn %d", lpn, e, ppn)
		}
	}
	if mapped != valid {
		return fmt.Errorf("ftl: %d mapped lpns but %d valid pages", mapped, valid)
	}
	// Every block the aged extent still names is healthy, and the LPN at
	// its page 0 translates there.
	for b, first := range f.aged.first {
		if first == unmapped {
			continue
		}
		if lpn := target(first); lpn >= f.aged.n || f.agedPPN(lpn) != f.p.PPN(b, 0) || f.arr.IsBad(b) {
			return fmt.Errorf("ftl: aged block %d with first lpn %d is not where the fill put it", b, lpn)
		}
	}
	// Free-page accounting: per plane, the pages reachable through the
	// allocator (free-listed blocks plus the open frontiers) must equal the
	// physically free pages outside retired blocks — every block that is
	// neither free-listed, active, nor retired must be full.
	for pl := range f.freeBlocks {
		var reachable int64
		for _, b := range f.freeBlocks[pl] {
			if f.arr.IsBad(int(b)) {
				return fmt.Errorf("ftl: plane %d free list holds retired block %d", pl, b)
			}
			if f.p.PlaneOfBlock(int(b)) != pl {
				return fmt.Errorf("ftl: plane %d free list holds foreign block %d", pl, b)
			}
			if free := f.arr.FreePagesInBlock(int(b)); free != f.p.PagesPerBlock {
				return fmt.Errorf("ftl: plane %d free list holds non-erased block %d (%d free pages)", pl, b, free)
			}
			reachable += int64(f.p.PagesPerBlock)
		}
		if a := f.activeBlock[pl]; a >= 0 {
			reachable += int64(f.arr.FreePagesInBlock(int(a)))
		}
		if g := f.gcActive[pl]; g >= 0 {
			reachable += int64(f.arr.FreePagesInBlock(int(g)))
		}
		var physical int64
		first := f.p.FirstBlockOfPlane(pl)
		for b := first; b < first+f.p.BlocksPerPlane; b++ {
			if f.arr.IsBad(b) {
				continue
			}
			physical += int64(f.arr.FreePagesInBlock(b))
		}
		if physical != reachable {
			return fmt.Errorf("ftl: plane %d has %d physically free pages but %d reachable by the allocator",
				pl, physical, reachable)
		}
	}
	if int64(f.arr.BadBlocks()) != f.stats.RetiredBlocks {
		return fmt.Errorf("ftl: array reports %d retired blocks, ftl accounted %d", f.arr.BadBlocks(), f.stats.RetiredBlocks)
	}
	// An in-flight scheduled GC job must own a legal victim: full (so it is
	// invisible to the allocator), healthy, and not an open frontier.
	if f.job.active {
		j := f.job
		if f.arr.IsBad(j.victim) || !f.arr.BlockFull(j.victim) ||
			int32(j.victim) == f.activeBlock[j.plane] || int32(j.victim) == f.gcActive[j.plane] {
			return fmt.Errorf("ftl: in-flight gc job victim %d in illegal state", j.victim)
		}
	}
	return nil
}
