package flash

import (
	"fmt"
	"math"

	"repro/internal/fault"
)

// PageState is the physical state of one flash page.
type PageState uint8

const (
	// PageFree means the page has been erased and may be programmed.
	PageFree PageState = iota
	// PageValid means the page holds live data.
	PageValid
	// PageInvalid means the page holds stale data awaiting erase.
	PageInvalid
)

// Array tracks the physical state of every page and block in the device.
// It enforces the NAND programming constraints: pages within a block are
// programmed strictly in order, and a block must be erased before any of
// its pages can be reused.
//
// Array is purely physical: it knows nothing about logical addresses. The
// FTL layers mapping, allocation and GC policy on top.
//
// Each block carries one greedy-GC score that also holds its valid count:
// a full block scores its valid pages, an open (not yet full) block its
// valid pages plus PagesPerBlock+1, and a retired block retiredScore. Every
// score below PagesPerBlock is therefore a full, healthy block with
// something to reclaim, and the greedy victim is the smallest such score
// (GreedyVictim). An invalidation decrements the score in place, so an
// overwrite writes one per-block word.
type Array struct {
	p Params

	pages      []PageState // indexed by PPN
	nextPage   []int32     // per block: next programmable in-block page
	score      []int32     // per block: greedy-GC score (see Array)
	eraseCount []int32     // per block: erases performed (wear)
	progFails  []int32     // per block: program failures since last erase
	bad        []bool      // per block: permanently retired (grown bad)
	badCount   int

	inj *fault.Injector // nil = fault-free (the default)

	// Operation counters.
	programs int64
	reads    int64
	erases   int64
}

// NewArray allocates the physical state for the given geometry.
func NewArray(p Params) (*Array, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	blocks := p.Blocks()
	a := &Array{
		p:          p,
		pages:      make([]PageState, p.PhysicalPages()),
		nextPage:   make([]int32, blocks),
		score:      make([]int32, blocks),
		eraseCount: make([]int32, blocks),
		progFails:  make([]int32, blocks),
		bad:        make([]bool, blocks),
	}
	open := a.openOffset()
	for b := range a.score {
		a.score[b] = open
	}
	return a, nil
}

// retiredScore is a retired block's score: never a GC candidate.
const retiredScore = math.MaxInt32

// openOffset is what an open block's score adds to its valid count.
func (a *Array) openOffset() int32 { return int32(a.p.PagesPerBlock) + 1 }

// SetInjector attaches a fault injector; nil detaches it. With no injector
// the array behaves exactly as a fault-free device.
func (a *Array) SetInjector(inj *fault.Injector) { a.inj = inj }

// IsBad reports whether a block has been retired (grown bad).
func (a *Array) IsBad(block int) bool { return a.bad[block] }

// BadBlocks returns the number of retired blocks.
func (a *Array) BadBlocks() int { return a.badCount }

// markBad retires a block permanently; it can no longer be programmed or
// erased.
func (a *Array) markBad(block int) {
	if !a.bad[block] {
		a.bad[block] = true
		a.score[block] = retiredScore
		a.badCount++
	}
}

// Params returns the geometry the array was built with.
func (a *Array) Params() Params { return a.p }

// State returns the state of a physical page.
func (a *Array) State(ppn int64) PageState { return a.pages[ppn] }

// ValidCount returns the number of valid pages in a block.
func (a *Array) ValidCount(block int) int {
	switch s := a.score[block]; {
	case a.bad[block]:
		return 0 // retired blocks hold no valid data (Erase emptied them)
	case a.BlockFull(block):
		return int(s)
	default:
		return int(s - a.openOffset())
	}
}

// GreedyVictim returns the greedy GC victim of a plane: the lowest-index
// block with the fewest valid pages among its full, healthy blocks that
// have at least one page to reclaim, skipping the blocks skip1 and skip2
// (-1 skips nothing). It returns -1 when no block qualifies, and otherwise
// the victim and its valid-page count.
//
// It finds the smallest score first, with no branch per block, and then
// the first block that holds it.
func (a *Array) GreedyVictim(plane, skip1, skip2 int) (block, valid int) {
	first := a.p.FirstBlockOfPlane(plane)
	scores := a.score[first : first+a.p.BlocksPerPlane]
	limit := int32(a.p.PagesPerBlock)
	best := minScore(scores, limit)
	if best == limit {
		return -1, int(limit)
	}
	for i, s := range scores {
		if s == best && first+i != skip1 && first+i != skip2 {
			return first + i, int(best)
		}
	}
	// Only skipped blocks hold the smallest score: take the best of the rest.
	block, best = -1, limit
	for i, s := range scores {
		if s < best && first+i != skip1 && first+i != skip2 {
			block, best = first+i, s
		}
	}
	return block, int(best)
}

// minScore returns the smallest of scores and limit. Four running minima
// keep the loop free of branches and of one long dependency chain.
func minScore(scores []int32, limit int32) int32 {
	m0, m1, m2, m3 := limit, limit, limit, limit
	for len(scores) >= 4 {
		m0, m1, m2, m3 = min(m0, scores[0]), min(m1, scores[1]), min(m2, scores[2]), min(m3, scores[3])
		scores = scores[4:]
	}
	for _, s := range scores {
		m0 = min(m0, s)
	}
	return min(m0, m1, m2, m3)
}

// EraseCount returns how many times a block has been erased.
func (a *Array) EraseCount(block int) int { return int(a.eraseCount[block]) }

// BlockFull reports whether a block has no programmable pages left.
func (a *Array) BlockFull(block int) bool {
	return int(a.nextPage[block]) >= a.p.PagesPerBlock
}

// FreePagesInBlock returns how many pages of the block remain programmable.
func (a *Array) FreePagesInBlock(block int) int {
	return a.p.PagesPerBlock - int(a.nextPage[block])
}

// Program programs the next sequential page of the given block, returning
// its PPN. It fails if the block is full or retired.
//
// With a fault injector attached, the program may fail with an error
// wrapping fault.ErrProgramFail. The failed page is consumed: NAND cannot
// re-program a page before an erase, so it is marked invalid (wasted) and
// the in-block frontier advances. The caller must write the data to a
// freshly allocated page.
func (a *Array) Program(block int) (int64, error) {
	if a.bad[block] {
		return 0, fmt.Errorf("flash: program on retired block %d", block)
	}
	np := a.nextPage[block]
	if int(np) >= a.p.PagesPerBlock {
		return 0, fmt.Errorf("flash: program on full block %d", block)
	}
	ppn := a.p.PPN(block, int(np))
	if a.pages[ppn] != PageFree {
		return 0, fmt.Errorf("flash: page %d of block %d not free", np, block)
	}
	if a.inj != nil && a.inj.ProgramFails(a.p.ChipOfBlock(block)) {
		a.pages[ppn] = PageInvalid
		a.advance(block, np+1)
		a.progFails[block]++
		return 0, fmt.Errorf("flash: block %d page %d: %w", block, np, fault.ErrProgramFail)
	}
	a.pages[ppn] = PageValid
	a.score[block]++
	a.advance(block, np+1)
	a.programs++
	return ppn, nil
}

// advance moves a block's program frontier to page next, dropping the
// open-block offset from its score when that fills the block.
func (a *Array) advance(block int, next int32) {
	a.nextPage[block] = next
	if int(next) == a.p.PagesPerBlock {
		a.score[block] -= a.openOffset()
	}
}

// ProgramRun programs the next n sequential pages of the given block in
// one step, leaving the array exactly as n fault-free Program calls would,
// and returns the first page's PPN. It serves bulk fills (an aged device's
// preconditioning), so it refuses an array with a fault injector attached,
// whose programs may fail page by page.
func (a *Array) ProgramRun(block, n int) (int64, error) {
	if a.inj != nil {
		return 0, fmt.Errorf("flash: program run with a fault injector attached")
	}
	if a.bad[block] {
		return 0, fmt.Errorf("flash: program on retired block %d", block)
	}
	np := int(a.nextPage[block])
	if n < 1 || np+n > a.p.PagesPerBlock {
		return 0, fmt.Errorf("flash: program run of %d pages at page %d of block %d", n, np, block)
	}
	ppn := a.p.PPN(block, np)
	run := a.pages[ppn : ppn+int64(n)]
	for i := range run {
		run[i] = PageValid
	}
	a.score[block] += int32(n)
	a.advance(block, int32(np+n))
	a.programs += int64(n)
	return ppn, nil
}

// Read counts a page read. Reading a free page is an FTL bug.
func (a *Array) Read(ppn int64) error {
	if a.pages[ppn] == PageFree {
		return fmt.Errorf("flash: read of unprogrammed page %d", ppn)
	}
	a.reads++
	return nil
}

// Invalidate marks a valid page stale (its logical page was overwritten or
// trimmed).
func (a *Array) Invalidate(ppn int64) error {
	if a.pages[ppn] != PageValid {
		return fmt.Errorf("flash: invalidate of non-valid page %d (state %d)", ppn, a.pages[ppn])
	}
	a.pages[ppn] = PageInvalid
	a.score[a.p.BlockOfPPN(ppn)]--
	return nil
}

// Erase erases a block, returning its pages to the free state. Erasing a
// block that still holds valid pages is refused: the FTL must migrate them
// first.
//
// With a fault injector attached, two failure modes exist, both terminal
// for the block (it is marked bad and must be retired by the FTL):
//
//   - fault.ErrEraseFail: the erase itself failed; the pages keep their
//     stale contents.
//   - fault.ErrGrownBad: the erase completed but the block is retired by
//     wear detection — either an injected grown-bad draw or deterministic
//     retirement of a block that suffered a program failure since its last
//     erase (industry practice: program-fail blocks are retired once their
//     data has been moved off).
func (a *Array) Erase(block int) error {
	if a.bad[block] {
		return fmt.Errorf("flash: erase of retired block %d", block)
	}
	if v := a.ValidCount(block); v > 0 {
		return fmt.Errorf("flash: erase of block %d with %d valid pages", block, v)
	}
	if a.inj != nil && a.inj.EraseFails(a.p.ChipOfBlock(block)) {
		a.markBad(block)
		return fmt.Errorf("flash: block %d: %w", block, fault.ErrEraseFail)
	}
	base := a.p.PPN(block, 0)
	for i := 0; i < a.p.PagesPerBlock; i++ {
		a.pages[base+int64(i)] = PageFree
	}
	a.nextPage[block] = 0
	a.score[block] = a.openOffset()
	a.eraseCount[block]++
	a.erases++
	if a.inj != nil {
		hadProgFail := a.progFails[block] > 0
		a.progFails[block] = 0
		// Draw unconditionally so the grown-bad stream advances once per
		// successful erase regardless of the block's program-fail history.
		grown := a.inj.GrownBad(a.p.ChipOfBlock(block))
		if hadProgFail || grown {
			a.markBad(block)
			return fmt.Errorf("flash: block %d: %w", block, fault.ErrGrownBad)
		}
	}
	return nil
}

// Programs returns the total page programs performed.
func (a *Array) Programs() int64 { return a.programs }

// Reads returns the total page reads performed.
func (a *Array) Reads() int64 { return a.reads }

// Erases returns the total block erases performed.
func (a *Array) Erases() int64 { return a.erases }

// CheckInvariants verifies the per-block scores and sequential-program
// frontier against the raw page states, and that retired blocks hold no
// valid data. Intended for tests and the fault checker.
func (a *Array) CheckInvariants() error {
	badSeen := 0
	for b := 0; b < a.p.Blocks(); b++ {
		base := a.p.PPN(b, 0)
		valid := int32(0)
		frontier := int32(0)
		seenFree := false
		for i := 0; i < a.p.PagesPerBlock; i++ {
			switch a.pages[base+int64(i)] {
			case PageValid:
				valid++
				if seenFree {
					return fmt.Errorf("flash: block %d page %d programmed after free page", b, i)
				}
				frontier = int32(i) + 1
			case PageInvalid:
				if seenFree {
					return fmt.Errorf("flash: block %d page %d invalid after free page", b, i)
				}
				frontier = int32(i) + 1
			case PageFree:
				seenFree = true
			}
		}
		if frontier != a.nextPage[b] {
			return fmt.Errorf("flash: block %d nextPage %d, recounted %d", b, a.nextPage[b], frontier)
		}
		want := valid
		switch {
		case a.bad[b]:
			badSeen++
			if valid != 0 {
				return fmt.Errorf("flash: retired block %d still has %d valid pages", b, valid)
			}
			want = retiredScore
		case int(frontier) < a.p.PagesPerBlock:
			want += a.openOffset()
		}
		if a.score[b] != want {
			return fmt.Errorf("flash: block %d score %d, want %d (%d valid pages, frontier %d)",
				b, a.score[b], want, valid, frontier)
		}
	}
	if badSeen != a.badCount {
		return fmt.Errorf("flash: badCount %d, recounted %d", a.badCount, badSeen)
	}
	return nil
}
