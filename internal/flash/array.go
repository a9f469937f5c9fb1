package flash

import (
	"fmt"

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
type Array struct {
	p Params

	pages      []PageState // indexed by PPN
	nextPage   []int32     // per block: next programmable in-block page
	validCount []int32     // per block: count of PageValid pages
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
	return &Array{
		p:          p,
		pages:      make([]PageState, p.PhysicalPages()),
		nextPage:   make([]int32, blocks),
		validCount: make([]int32, blocks),
		eraseCount: make([]int32, blocks),
		progFails:  make([]int32, blocks),
		bad:        make([]bool, blocks),
	}, nil
}

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
		a.badCount++
	}
}

// Params returns the geometry the array was built with.
func (a *Array) Params() Params { return a.p }

// State returns the state of a physical page.
func (a *Array) State(ppn int64) PageState { return a.pages[ppn] }

// ValidCount returns the number of valid pages in a block.
func (a *Array) ValidCount(block int) int { return int(a.validCount[block]) }

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
		a.nextPage[block] = np + 1
		a.progFails[block]++
		return 0, fmt.Errorf("flash: block %d page %d: %w", block, np, fault.ErrProgramFail)
	}
	a.pages[ppn] = PageValid
	a.nextPage[block] = np + 1
	a.validCount[block]++
	a.programs++
	return ppn, nil
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
	a.nextPage[block] += int32(n)
	a.validCount[block] += int32(n)
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
	a.validCount[a.p.BlockOfPPN(ppn)]--
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
	if a.validCount[block] > 0 {
		return fmt.Errorf("flash: erase of block %d with %d valid pages", block, a.validCount[block])
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

// CheckInvariants verifies the per-block valid counts and sequential-program
// frontier against the raw page states, and that retired blocks hold no
// valid data. Intended for tests and the fault checker.
func (a *Array) CheckInvariants() error {
	badSeen := 0
	for b := 0; b < a.p.Blocks(); b++ {
		if a.bad[b] {
			badSeen++
			if a.validCount[b] != 0 {
				return fmt.Errorf("flash: retired block %d still has %d valid pages", b, a.validCount[b])
			}
		}
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
		if valid != a.validCount[b] {
			return fmt.Errorf("flash: block %d validCount %d, recounted %d", b, a.validCount[b], valid)
		}
		if frontier != a.nextPage[b] {
			return fmt.Errorf("flash: block %d nextPage %d, recounted %d", b, a.nextPage[b], frontier)
		}
	}
	if badSeen != a.badCount {
		return fmt.Errorf("flash: badCount %d, recounted %d", a.badCount, badSeen)
	}
	return nil
}
