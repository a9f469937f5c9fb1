package ftl

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/flash"
)

// referencePick is the linear scan the wear index replaced, kept as its
// reference: start from the last free block and take any strictly
// less-worn one, scanning in free-list order.
func referencePick(arr *flash.Array, free []int32) int {
	pick := len(free) - 1
	best := arr.EraseCount(int(free[pick]))
	for i, b := range free[:len(free)-1] {
		if e := arr.EraseCount(int(b)); e < best {
			best, pick = e, i
		}
	}
	return pick
}

// pickCounts tallies the block opens checkPicks saw.
type pickCounts struct {
	opens int // block opens
	front int // opens that took a block other than the last free one
}

// checkPicks fails t at the first block open whose indexed pick differs
// from the reference scan's.
func checkPicks(t *testing.T, f *FTL) *pickCounts {
	t.Helper()
	c := &pickCounts{}
	f.pickHook = func(plane int, free []int32, pick int) {
		c.opens++
		if pick != len(free)-1 {
			c.front++
		}
		if want := referencePick(f.arr, free); pick != want {
			t.Fatalf("open %d on plane %d: index picked position %d (block %d, %d erases), reference %d (block %d, %d erases)",
				c.opens, plane, pick, free[pick], f.arr.EraseCount(int(free[pick])),
				want, free[want], f.arr.EraseCount(int(free[want])))
		}
	}
	return c
}

// gcHeavyParams: 2 channels × 2 chips × 32 blocks × 8 pages with 25%
// over-provisioning, small enough that random rewrites collect garbage
// within a few hundred operations.
func gcHeavyParams() flash.Params {
	p := tinyParams()
	p.BlocksPerPlane = 32
	p.PagesPerBlock = 8
	p.GCThreshold = 0.15
	return p
}

// churnRandom drives a randomized mix of striped, block-bound and
// channel-bound writes, trims and budgeted GC slices until the device
// turns read-only or ops run out.
func churnRandom(t *testing.T, f *FTL, seed uint64, ops int) {
	t.Helper()
	state := seed*0x9e3779b97f4a7c15 + 1
	next := func(n int64) int64 {
		state = state*6364136223846793005 + 1442695040888963407
		return int64(state>>33) % n
	}
	logical := f.LogicalPages()
	var now int64
	for op := 0; op < ops; op++ {
		now += 50_000 + next(2_000_000)
		lpns := make([]int64, 1+next(8))
		for i := range lpns {
			lpns[i] = next(logical)
		}
		var err error
		switch r := next(100); {
		case r < 55:
			_, err = f.WriteStriped(now, lpns)
		case r < 70:
			_, err = f.WriteBlockBound(now, lpns)
		case r < 82:
			_, err = f.WriteOnChannel(now, lpns, int(next(int64(f.p.Channels))))
		case r < 92:
			f.ScheduleGC(now, 1+next(40_000_000))
		default:
			err = f.Trim(lpns)
		}
		if errors.Is(err, fault.ErrReadOnly) {
			return
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
}

// TestWearIndexMatchesLinearScan checks the indexed least-worn pick
// against the reference scan at every block open of randomized GC-heavy
// runs: pre-worn with jitter, the preemptible GC scheduler on, and
// program and erase faults retiring blocks.
func TestWearIndexMatchesLinearScan(t *testing.T) {
	var total pickCounts
	var gcRuns, retired int64
	for seed := uint64(1); seed <= 8; seed++ {
		f := mustNew(t, gcHeavyParams())
		f.PreWear(seed, 20, 6)
		inj, err := fault.NewInjector(fault.Config{
			Seed: seed, ProgramFailProb: 0.004, EraseFailProb: 0.01, GrownBadProb: 0.01, ReserveBlocks: 24,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.EnableFaults(inj)
		f.EnableGCScheduler(GCSchedConfig{Enabled: true})
		c := checkPicks(t, f)
		churnRandom(t, f, seed, 3000)
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		total.opens += c.opens
		total.front += c.front
		gcRuns += f.Stats().GCRuns
		retired += f.Stats().RetiredBlocks
	}
	// The campaign must reach the paths it exists for: collections that
	// return blocks to the free lists, retirements, and opens that take a
	// block other than the last.
	if gcRuns == 0 || retired == 0 || total.front == 0 {
		t.Fatalf("campaign too gentle: %d opens (%d not the last free block), %d GC runs, %d retired blocks",
			total.opens, total.front, gcRuns, retired)
	}
}

// TestWearIndexAfterPreconditionThenPreWear repeats the check in the
// order a device is built (ssd.New): fill, then age, then replay.
func TestWearIndexAfterPreconditionThenPreWear(t *testing.T) {
	f := mustNew(t, gcHeavyParams())
	if err := f.Precondition(0.9); err != nil {
		t.Fatal(err)
	}
	f.PreWear(7, 40, 9)
	c := checkPicks(t, f)
	churnRandom(t, f, 7, 2000)
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if f.Stats().GCRuns == 0 || c.front == 0 {
		t.Fatalf("%d GC runs, %d of %d opens not the last free block: the index was not exercised",
			f.Stats().GCRuns, c.front, c.opens)
	}
}
