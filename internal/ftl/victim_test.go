package ftl

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/flash"
)

// The per-block scans GC victim selection ran before the flash array kept
// a greedy score per block, kept as references for flash.GreedyVictim.
// They count each block's valid pages from the page states, so a wrong
// score cannot hide behind ValidCount, which is derived from it.

// validPages recounts a block's valid pages.
func validPages(arr *flash.Array, block int) int {
	p := arr.Params()
	n := 0
	for i := 0; i < p.PagesPerBlock; i++ {
		if arr.State(p.PPN(block, i)) == flash.PageValid {
			n++
		}
	}
	return n
}

// referenceGreedy is maybeGC's greedy scan: the full, healthy block with
// the fewest valid pages, lowest index first.
func referenceGreedy(f *FTL, plane int) int {
	first := f.p.FirstBlockOfPlane(plane)
	victim := -1
	best := f.p.PagesPerBlock + 1
	for b := first; b < first+f.p.BlocksPerPlane; b++ {
		if !f.arr.BlockFull(b) || f.arr.IsBad(b) {
			continue
		}
		if v := validPages(f.arr, b); v < best {
			best, victim = v, b
		}
	}
	if victim < 0 || best >= f.p.PagesPerBlock {
		return -1
	}
	return victim
}

// referenceJobOnPlane is startJobOnPlane's scan: the greedy one, skipping
// the plane's frontier blocks.
func referenceJobOnPlane(f *FTL, plane int) int {
	first := f.p.FirstBlockOfPlane(plane)
	victim, best := -1, f.p.PagesPerBlock+1
	for b := first; b < first+f.p.BlocksPerPlane; b++ {
		if int32(b) == f.activeBlock[plane] || int32(b) == f.gcActive[plane] || !f.arr.BlockFull(b) {
			continue
		}
		if f.arr.IsBad(b) {
			continue
		}
		if v := validPages(f.arr, b); v < best {
			best, victim = v, b
		}
	}
	if victim < 0 || best >= f.p.PagesPerBlock {
		return -1
	}
	return victim
}

// referenceJob is startJob's scan: every candidate block of every plane
// weighed by cost over pressure behind the idle tier's cost gate. It also
// reports whether the gate deferred a candidate.
func referenceJob(f *FTL, budgetNs int64) (victim int, deferred bool) {
	copyCost := f.copyStepCost()
	victim = -1
	var bestCost, bestPress int64
	for pl := range f.freeBlocks {
		free := len(f.freeBlocks[pl])
		idle := free >= f.gcSoftLow
		pressure := max(int64(f.gcSoftLow-free)+1, 1)
		first := f.p.FirstBlockOfPlane(pl)
		for b := first; b < first+f.p.BlocksPerPlane; b++ {
			if int32(b) == f.activeBlock[pl] || int32(b) == f.gcActive[pl] || !f.arr.BlockFull(b) {
				continue
			}
			if f.arr.IsBad(b) {
				continue
			}
			v := validPages(f.arr, b)
			if v >= f.p.PagesPerBlock {
				continue
			}
			cost := int64(v)*copyCost + f.p.EraseLatency
			if idle && (2*v > f.p.PagesPerBlock || cost > budgetNs) {
				deferred = true
				continue
			}
			if victim < 0 || cost*bestPress < bestCost*pressure {
				victim = b
				bestCost, bestPress = cost, pressure
			}
		}
	}
	return victim, deferred
}

// victimCounts tallies the choices checkVictims saw.
type victimCounts struct {
	picks    [3]int // per site: choices that found a victim
	none     [3]int // per site: choices that found none
	deferred int64  // startJob choices the reference's cost gate emptied
}

// checkVictims fails t at the first victim choice that differs from the
// reference scan's, and at the first greedy choice made beside an
// in-flight job on its plane.
func checkVictims(t *testing.T, f *FTL) *victimCounts {
	t.Helper()
	c := &victimCounts{}
	f.victimHook = func(site victimSite, plane int, budgetNs int64, victim int) {
		var want int
		switch site {
		case victimGreedy:
			if f.job.active && f.job.plane == plane {
				t.Fatalf("greedy choice on plane %d beside the in-flight job on block %d", plane, f.job.victim)
			}
			want = referenceGreedy(f, plane)
		case victimJobOnPlane:
			want = referenceJobOnPlane(f, plane)
		case victimJob:
			var deferred bool
			want, deferred = referenceJob(f, budgetNs)
			if want < 0 && deferred {
				c.deferred++
			}
		}
		if victim != want {
			t.Fatalf("site %d, plane %d, budget %d: picked block %d, reference %d",
				site, plane, budgetNs, victim, want)
		}
		if victim < 0 {
			c.none[site]++
		} else {
			c.picks[site]++
		}
	}
	return c
}

// TestGreedyVictimMatchesReferenceScans checks every GC victim choice of
// randomized GC-heavy runs against the per-block scans: striped,
// block-bound and channel-bound writes and trims, budgeted slices, paced
// copies, program and erase faults retiring blocks, pre-worn devices, and
// devices preconditioned to 90% the way ssd.New fills them. No greedy
// choice may run beside an in-flight job on its plane: maybeGC finishes
// that job first, which is why its greedy round skips no job victim.
func TestGreedyVictimMatchesReferenceScans(t *testing.T) {
	var total victimCounts
	var retired int64
	for seed := uint64(1); seed <= 12; seed++ {
		f := mustNew(t, gcHeavyParams())
		if seed%2 == 0 {
			if err := f.Precondition(0.9); err != nil {
				t.Fatal(err)
			}
		}
		f.PreWear(seed, 20, 6)
		inj, err := fault.NewInjector(fault.Config{
			Seed: seed, ProgramFailProb: 0.001, EraseFailProb: 0.002, GrownBadProb: 0.002, ReserveBlocks: 24,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.EnableFaults(inj)
		if seed%3 != 0 {
			f.EnableGCScheduler(GCSchedConfig{PaceSteps: int(seed % 3)})
		}
		c := checkVictims(t, f)
		churnRandom(t, f, seed, 4000)
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if c.deferred != f.sched.CostDeferred {
			t.Fatalf("seed %d: %d deferred slices, reference %d", seed, f.sched.CostDeferred, c.deferred)
		}
		for s := range c.picks {
			total.picks[s] += c.picks[s]
			total.none[s] += c.none[s]
		}
		total.deferred += c.deferred
		retired += f.Stats().RetiredBlocks
	}
	// The campaign must reach every site with and without a victim, the
	// cost gate and retired blocks.
	for s := range total.picks {
		if total.picks[s] == 0 || total.none[s] == 0 {
			t.Fatalf("site %d: %d picks, %d without a victim", s, total.picks[s], total.none[s])
		}
	}
	if total.deferred == 0 || retired == 0 {
		t.Fatalf("campaign too gentle: %d deferred slices, %d retired blocks", total.deferred, retired)
	}
	t.Logf("picks %v, none %v, deferred %d, retired %d",
		total.picks, total.none, total.deferred, retired)
}

// BenchmarkGCVictim times one greedy collection's victim pick on a full
// device that random overwrites have pushed into GC: 512 blocks per plane
// at ScaledParams(64), 8,192 at ScaledParams(4), and the paper's 32,768
// at ScaledParams(1). The device is built once per row, outside b.Run,
// because the testing package calls a sub-benchmark's function more than
// once and the paper-scale set-up writes about six million pages.
func BenchmarkGCVictim(b *testing.B) {
	for _, div := range []int{64, 4, 1} {
		p := flash.ScaledParams(div)
		f, err := New(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Precondition(0.95); err != nil {
			b.Fatal(err)
		}
		state, logical := uint64(div), f.LogicalPages()
		lpns := make([]int64, 1)
		for i := int64(0); i < logical/5; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			lpns[0] = int64(state>>33) % logical
			if _, err := f.WriteStriped(i*1000, lpns); err != nil {
				b.Fatal(err)
			}
		}
		if f.Stats().GCRuns == 0 {
			b.Fatal("the overwrites collected no garbage")
		}
		planes := p.Planes()
		b.Run(fmt.Sprintf("blocks=%d", p.BlocksPerPlane), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if v, _ := f.arr.GreedyVictim(i%planes, -1, -1); v < 0 {
					b.Fatal("no victim")
				}
			}
		})
	}
}
