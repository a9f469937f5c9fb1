package oracle

import "fmt"

// Page states in the oracle FTL's flat physical view.
const (
	pageFree = iota
	pageValid
	pageInvalid
)

// FTL is a naive page-map flash translation layer with greedy garbage
// collection: maps and slices, no timing, no pooling, and — unlike the
// fast FTL, which only tracks page states — a content shadow. Every host
// write stores a stamp per page, GC migrations carry stamps along, and
// CheckInvariants demands that every live logical page still resolves to
// the stamp of its last host write: "GC preserves live page contents" as
// an executable property rather than an argument.
//
// The differential runner feeds the same flush batches to this oracle and
// to the fast ftl.FTL, then diffs the externally visible mapping — which
// logical pages are live — plus both sides' invariant suites. Physical
// placement is allocation policy, not contract, so it is deliberately not
// diffed: the oracle allocates round-robin with no wear leveling, the
// simplest policy that exercises GC.
type FTL struct {
	planes         int
	blocksPerPlane int
	pagesPerBlock  int
	logical        int64

	mapping map[int64]int64  // lpn -> ppn
	owner   map[int64]int64  // ppn -> lpn, the injectivity witness
	state   []uint8          // per ppn
	content map[int64]uint64 // lpn -> stamp of its last host write
	stored  map[int64]uint64 // ppn -> stamp physically held

	free    [][]int // per plane: erased blocks, consumed lowest-first
	active  []int   // per plane: block accepting programs, -1 if none
	fill    []int   // per block: next free page index
	gcLow   int     // free-block floor per plane that triggers GC
	striped int     // round-robin plane cursor for striped batches
	bound   int     // round-robin plane cursor for block-bound batches
}

// NewFTL builds an oracle FTL over the given geometry. gcLow is the
// per-plane free-block floor below which greedy GC runs.
func NewFTL(planes, blocksPerPlane, pagesPerBlock int, logical int64, gcLow int) *FTL {
	if planes < 1 || blocksPerPlane < 2 || pagesPerBlock < 1 {
		panic(fmt.Sprintf("oracle: bad FTL geometry %d/%d/%d", planes, blocksPerPlane, pagesPerBlock))
	}
	totalBlocks := planes * blocksPerPlane
	if logical <= 0 || logical > int64(totalBlocks*pagesPerBlock) {
		panic(fmt.Sprintf("oracle: logical %d out of range", logical))
	}
	if gcLow < 1 {
		gcLow = 1
	}
	f := &FTL{
		planes:         planes,
		blocksPerPlane: blocksPerPlane,
		pagesPerBlock:  pagesPerBlock,
		logical:        logical,
		mapping:        make(map[int64]int64),
		owner:          make(map[int64]int64),
		state:          make([]uint8, totalBlocks*pagesPerBlock),
		content:        make(map[int64]uint64),
		stored:         make(map[int64]uint64),
		free:           make([][]int, planes),
		active:         make([]int, planes),
		fill:           make([]int, totalBlocks),
		gcLow:          gcLow,
	}
	for pl := 0; pl < planes; pl++ {
		for b := 0; b < blocksPerPlane; b++ {
			f.free[pl] = append(f.free[pl], pl*blocksPerPlane+b)
		}
		f.active[pl] = -1
	}
	return f
}

// LogicalPages returns the host-visible page count.
func (f *FTL) LogicalPages() int64 { return f.logical }

// Mapped reports whether a logical page is live.
func (f *FTL) Mapped(lpn int64) bool {
	_, ok := f.mapping[lpn]
	return ok
}

// planeOfBlock returns the plane a block belongs to.
func (f *FTL) planeOfBlock(block int) int { return block / f.blocksPerPlane }

// ppn composes a physical page number.
func (f *FTL) ppn(block, page int) int64 { return int64(block*f.pagesPerBlock + page) }

// validCount counts the valid pages of a block.
func (f *FTL) validCount(block int) int {
	n := 0
	base := f.ppn(block, 0)
	for i := 0; i < f.pagesPerBlock; i++ {
		if f.state[base+int64(i)] == pageValid {
			n++
		}
	}
	return n
}

// blockFull reports whether a block has no free pages left.
func (f *FTL) blockFull(block int) bool { return f.fill[block] >= f.pagesPerBlock }

// WriteStriped writes a batch round-robin across planes, stamping each
// page. Stamps parallel lpns one to one.
func (f *FTL) WriteStriped(lpns []int64, stamps []uint64) error {
	for i, lpn := range lpns {
		if err := f.writeOne(lpn, stamps[i], f.striped); err != nil {
			return err
		}
		f.striped = (f.striped + 1) % f.planes
	}
	return nil
}

// WriteBlockBound writes a whole batch onto one plane, advancing the
// plane per batch — the oracle view of BPLRU/FAB block-bound flushes.
func (f *FTL) WriteBlockBound(lpns []int64, stamps []uint64) error {
	if len(lpns) == 0 {
		return nil
	}
	plane := f.bound
	f.bound = (f.bound + 1) % f.planes
	for i, lpn := range lpns {
		if err := f.writeOne(lpn, stamps[i], plane); err != nil {
			return err
		}
	}
	return nil
}

// Trim discards logical pages; trimming an unmapped page is a no-op.
func (f *FTL) Trim(lpns []int64) {
	for _, lpn := range lpns {
		ppn, ok := f.mapping[lpn]
		if !ok {
			continue
		}
		f.state[ppn] = pageInvalid
		delete(f.mapping, lpn)
		delete(f.owner, ppn)
		delete(f.stored, ppn)
		delete(f.content, lpn)
	}
}

// writeOne maps one host page onto the preferred plane, falling back to
// the plane with the most free pages when it is exhausted.
func (f *FTL) writeOne(lpn int64, stamp uint64, plane int) error {
	if lpn < 0 || lpn >= f.logical {
		return fmt.Errorf("oracle: lpn %d out of range [0,%d)", lpn, f.logical)
	}
	f.maybeGC(plane)
	ppn, ok := f.alloc(plane)
	if !ok {
		fallback := f.richestPlane()
		f.maybeGC(fallback)
		ppn, ok = f.alloc(fallback)
		if !ok {
			return fmt.Errorf("oracle: planes %d and %d out of free blocks", plane, fallback)
		}
	}
	if old, mapped := f.mapping[lpn]; mapped {
		f.state[old] = pageInvalid
		delete(f.owner, old)
		delete(f.stored, old)
	}
	f.mapping[lpn] = ppn
	f.owner[ppn] = lpn
	f.content[lpn] = stamp
	f.stored[ppn] = stamp
	return nil
}

// alloc programs the next page of the plane's active block, opening the
// lowest-numbered free block when needed. It never triggers GC itself, so
// the GC migration path can use it without recursing.
func (f *FTL) alloc(plane int) (int64, bool) {
	a := f.active[plane]
	if a < 0 || f.blockFull(a) {
		if len(f.free[plane]) == 0 {
			return 0, false
		}
		a = f.free[plane][0]
		f.free[plane] = f.free[plane][1:]
		f.active[plane] = a
	}
	ppn := f.ppn(a, f.fill[a])
	f.fill[a]++
	f.state[ppn] = pageValid
	return ppn, true
}

// richestPlane returns the plane with the most allocatable pages.
func (f *FTL) richestPlane() int {
	best, bestFree := 0, -1
	for pl := 0; pl < f.planes; pl++ {
		freePages := len(f.free[pl]) * f.pagesPerBlock
		if a := f.active[pl]; a >= 0 {
			freePages += f.pagesPerBlock - f.fill[a]
		}
		if freePages > bestFree {
			best, bestFree = pl, freePages
		}
	}
	return best
}

// maybeGC runs greedy collection rounds until the plane's free pool is
// back above the floor or no victim can make progress.
func (f *FTL) maybeGC(plane int) {
	for len(f.free[plane]) < f.gcLow {
		if !f.gcOnce(plane) {
			break
		}
	}
}

// gcOnce picks the full block with the fewest valid pages on the plane
// (lowest block number on ties), migrates its valid pages — stamps
// included — and erases it. A full active block is a candidate like any
// other full block: a plane whose free blocks are gone may have nothing
// else to reclaim. Survivors go to the plane's active block, or to the
// richest plane when this one has no room left.
func (f *FTL) gcOnce(plane int) bool {
	first := plane * f.blocksPerPlane
	victim, best := -1, f.pagesPerBlock+1
	for b := first; b < first+f.blocksPerPlane; b++ {
		if !f.blockFull(b) {
			continue
		}
		if v := f.validCount(b); v < best {
			victim, best = b, v
		}
	}
	if victim < 0 || best >= f.pagesPerBlock {
		return false // nothing reclaimable
	}
	base := f.ppn(victim, 0)
	for i := 0; i < f.pagesPerBlock; i++ {
		ppn := base + int64(i)
		if f.state[ppn] != pageValid {
			continue
		}
		lpn := f.owner[ppn]
		stamp := f.stored[ppn]
		newPPN, ok := f.alloc(plane)
		if !ok {
			newPPN, ok = f.alloc(f.richestPlane())
		}
		if !ok {
			// No plane has room for survivors; the pages moved so far
			// stay moved, the rest stay in the victim, and the caller's
			// loop stops.
			return false
		}
		f.state[ppn] = pageInvalid
		delete(f.owner, ppn)
		delete(f.stored, ppn)
		f.mapping[lpn] = newPPN
		f.owner[newPPN] = lpn
		f.stored[newPPN] = stamp
	}
	// An active victim stops accepting programs before its erase.
	if f.active[plane] == victim {
		f.active[plane] = -1
	}
	// Erase: every page back to free.
	for i := 0; i < f.pagesPerBlock; i++ {
		f.state[base+int64(i)] = pageFree
	}
	f.fill[victim] = 0
	f.free[plane] = append(f.free[plane], victim)
	return true
}

// CheckInvariants validates the executable-paper properties of the FTL:
// the logical→physical mapping is injective (owner is its inverse), every
// mapped page is physically valid, free-listed blocks are fully erased,
// and — the GC-correctness property — every live logical page still
// stores the stamp of its last host write.
func (f *FTL) CheckInvariants() error {
	if len(f.mapping) != len(f.owner) {
		return fmt.Errorf("oracle: %d mapped lpns but %d owned ppns", len(f.mapping), len(f.owner))
	}
	for lpn, ppn := range f.mapping {
		if f.state[ppn] != pageValid {
			return fmt.Errorf("oracle: lpn %d maps to non-valid ppn %d", lpn, ppn)
		}
		if back, ok := f.owner[ppn]; !ok || back != lpn {
			return fmt.Errorf("oracle: owner[%d] = %d, want %d (injectivity broken)", ppn, back, lpn)
		}
		if f.stored[ppn] != f.content[lpn] {
			return fmt.Errorf("oracle: lpn %d holds stamp %d, last write was %d (GC lost contents)",
				lpn, f.stored[ppn], f.content[lpn])
		}
	}
	valid := 0
	for ppn := range f.state {
		if f.state[ppn] == pageValid {
			valid++
		}
	}
	if valid != len(f.mapping) {
		return fmt.Errorf("oracle: %d valid pages but %d mapped lpns", valid, len(f.mapping))
	}
	for pl := 0; pl < f.planes; pl++ {
		for _, b := range f.free[pl] {
			if f.planeOfBlock(b) != pl {
				return fmt.Errorf("oracle: plane %d free list holds foreign block %d", pl, b)
			}
			if f.fill[b] != 0 {
				return fmt.Errorf("oracle: free-listed block %d has fill %d", b, f.fill[b])
			}
		}
	}
	return nil
}
