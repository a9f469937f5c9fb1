package ftl

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/flash"
)

// onePlaneParams: 1 channel × 1 chip × 1 plane × 8 blocks × 4 pages,
// 25% over-provisioning → 24 logical pages over 32 physical. Every write
// lands on plane 0, so GC trigger points are exact.
func onePlaneParams() flash.Params {
	p := tinyParams()
	p.Channels = 1
	p.ChipsPerChannel = 1
	return p
}

func TestMaybeGCTriggerThresholds(t *testing.T) {
	// gcLow derivation table: int(BlocksPerPlane × GCThreshold), floor 1.
	for _, tc := range []struct {
		blocks    int
		threshold float64
		want      int
	}{
		{8, 0.25, 2},
		{8, 0.10, 1}, // floor: 0.8 truncates to 0, clamped up
		{8, 0.50, 4},
		{16, 0.25, 4},
		{4, 0.75, 3},
	} {
		p := tinyParams()
		p.BlocksPerPlane = tc.blocks
		p.GCThreshold = tc.threshold
		f := mustNew(t, p)
		if f.gcLow != tc.want {
			t.Errorf("blocks=%d threshold=%v: gcLow = %d, want %d",
				tc.blocks, tc.threshold, f.gcLow, tc.want)
		}
	}

	// Behavioral edge: GC triggers strictly below gcLow, not at it. On the
	// one-plane device (gcLow 2), 24 sequential writes fill 6 blocks and
	// leave exactly 2 free — no GC. The first overwrite opens a 7th block
	// (free drops to 1) still without GC; the next allocation sees
	// free < gcLow and must collect.
	f := mustNew(t, onePlaneParams())
	if _, err := f.WriteStriped(0, seq(0, 24)); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().GCRuns; got != 0 {
		t.Fatalf("GC ran during sequential fill: GCRuns = %d", got)
	}
	if free := len(f.freeBlocks[0]); free != 2 {
		t.Fatalf("free blocks after fill = %d, want gcLow = 2", free)
	}
	if _, err := f.WriteStriped(1, seq(0, 1)); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().GCRuns; got != 0 {
		t.Fatalf("GC ran at free == gcLow: GCRuns = %d", got)
	}
	if _, err := f.WriteStriped(2, seq(1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().GCRuns; got != 1 {
		t.Fatalf("GC did not run at free < gcLow: GCRuns = %d, want 1", got)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGCOnceReselectsAfterEraseFault(t *testing.T) {
	// The first erase ever issued fails mid-GC: the victim is retired, the
	// greedy round reports progress, and the maybeGC loop re-selects the
	// next-best victim until the pool recovers — without degrading (the
	// default reserve tolerates it) and without losing any mapping.
	f, inj, c := newFaulty(t, fault.Config{FailEraseOps: []int64{1}})
	if err := churnUntilError(f, 60); err != nil {
		t.Fatalf("churn failed: %v", err)
	}
	if inj.Stats().EraseFails != 1 {
		t.Fatalf("injector erase fails = %d, want 1", inj.Stats().EraseFails)
	}
	st := f.Stats()
	if st.RetiredBlocks != 1 {
		t.Fatalf("RetiredBlocks = %d, want 1", st.RetiredBlocks)
	}
	if st.GCRuns == 0 {
		t.Fatal("no successful GC run after the faulted victim was retired")
	}
	if f.Degraded() {
		t.Fatal("device degraded on a single retirement within reserve")
	}
	for lpn := int64(0); lpn < 16; lpn++ {
		if !f.Mapped(lpn) {
			t.Fatalf("lpn %d lost its mapping across the faulted collection", lpn)
		}
	}
	if c.Failure() != nil {
		t.Fatal(c.Failure())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRichestPlaneTieBreak(t *testing.T) {
	// All planes equal: the first plane wins (strict > comparison).
	// Block-bound batches walk the channel-major stripe order 0,2,1,3, so
	// successive single-page writes dent planes in that order and the tie
	// among the untouched planes always breaks to the lowest index.
	f := mustNew(t, tinyParams())
	if got := f.richestPlane(); got != 0 {
		t.Fatalf("fresh device richestPlane = %d, want 0", got)
	}
	if _, err := f.WriteBlockBound(0, seq(0, 1)); err != nil { // plane 0
		t.Fatal(err)
	}
	if got := f.richestPlane(); got != 1 {
		t.Fatalf("after one page on plane 0, richestPlane = %d, want 1", got)
	}
	if _, err := f.WriteBlockBound(0, seq(1, 1)); err != nil { // plane 2
		t.Fatal(err)
	}
	if got := f.richestPlane(); got != 1 {
		t.Fatalf("after pages on planes 0 and 2, richestPlane = %d, want 1", got)
	}
	if _, err := f.WriteBlockBound(0, seq(2, 1)); err != nil { // plane 1
		t.Fatal(err)
	}
	if got := f.richestPlane(); got != 3 {
		t.Fatalf("after pages on planes 0, 2 and 1, richestPlane = %d, want 3", got)
	}
}

func TestRetireBlockReserveExhaustion(t *testing.T) {
	// Direct unit for the retirement fuse: the budget'th retirement is
	// tolerated, the one after trips read-only exactly once.
	f := mustNew(t, tinyParams())
	f.reserveBudget = 1
	f.retireBlock(0)
	if f.Degraded() {
		t.Fatal("degraded within reserve budget")
	}
	f.retireBlock(1)
	if !f.Degraded() {
		t.Fatal("not degraded after exceeding reserve budget")
	}
	f.retireBlock(2)
	st := f.Stats()
	if st.DegradedEntries != 1 {
		t.Fatalf("DegradedEntries = %d, want exactly 1", st.DegradedEntries)
	}
	if st.RetiredBlocks != 3 {
		t.Fatalf("RetiredBlocks = %d, want 3", st.RetiredBlocks)
	}
}

func TestScheduleGCDisabledIsNoOp(t *testing.T) {
	// Two devices run the same workload: no scheduler call at all, and
	// enabled-but-idle (pacing off, no ScheduleGC calls). The second may
	// count mandatory victims in its scheduler stats but must leave every
	// FTL-level stat and the logical state untouched.
	plain := mustNew(t, tinyParams())
	idle := mustNew(t, tinyParams())
	idle.EnableGCScheduler(GCSchedConfig{PaceSteps: -1})

	if n := plain.ScheduleGC(0, 1_000_000_000); n != 0 {
		t.Fatalf("ScheduleGC on scheduler-less FTL collected %d", n)
	}

	for round := 0; round < 40; round++ {
		now := int64(round) * 1_000_000
		lpns := seq(int64(round%5)*8, 16)
		for _, f := range []*FTL{plain, idle} {
			if _, err := f.WriteStriped(now, lpns); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	if plain.Stats() != idle.Stats() {
		t.Fatalf("enabled-but-never-scheduled perturbed FTL stats:\n%+v\n%+v", plain.Stats(), idle.Stats())
	}
	for lpn := int64(0); lpn < plain.LogicalPages(); lpn++ {
		if plain.Mapped(lpn) != idle.Mapped(lpn) {
			t.Fatalf("lpn %d liveness diverged across scheduler configs", lpn)
		}
	}
	if idle.GCJobInFlight() {
		t.Fatal("job in flight with pacing disabled and no slices granted")
	}
}

func TestScheduleGCIdleSliceCollectsCheapVictim(t *testing.T) {
	// One full block with 1 valid / 3 invalid pages is the cheapest
	// possible victim (~17 ms projected). A 2 ms slice must defer it on
	// the cost gate; a 30 ms slice must collect it completely.
	f := mustNew(t, onePlaneParams())
	f.EnableGCScheduler(GCSchedConfig{})
	if _, err := f.WriteStriped(0, seq(0, 4)); err != nil { // block 0 fills
		t.Fatal(err)
	}
	if _, err := f.WriteStriped(1, seq(0, 3)); err != nil { // 3 pages go stale
		t.Fatal(err)
	}
	if n := f.ScheduleGC(2, 2_000_000); n != 0 {
		t.Fatalf("2ms slice collected %d victims, want 0 (cost gate)", n)
	}
	st := f.GCSchedStats()
	if st.CostDeferred != 1 || st.JobsStarted != 0 {
		t.Fatalf("cost gate stats = %+v, want 1 deferral and no job", st)
	}
	n := f.ScheduleGC(3, 30_000_000)
	if n != 1 {
		t.Fatalf("30ms slice collected %d victims, want 1", n)
	}
	st = f.GCSchedStats()
	if st.JobsStarted != 1 || st.JobsCompleted != 1 || st.VictimsIdle != 1 {
		t.Fatalf("idle collection stats = %+v", st)
	}
	if f.GCJobInFlight() {
		t.Fatal("job still in flight after a completing slice")
	}
	if got := f.Stats().GCMigrations; got != 1 {
		t.Fatalf("GCMigrations = %d, want 1 (one valid page)", got)
	}
	for lpn := int64(0); lpn < 4; lpn++ {
		if !f.Mapped(lpn) {
			t.Fatalf("lpn %d lost across the scheduled collection", lpn)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// parkPacedJob builds the canonical background-tier state on a one-plane
// scheduler device and parks a job mid-victim: 20 sequential pages fill
// blocks 0–4 (free = 3, inside the [gcLow, softLow) window), trimming two
// pages makes block 0 a 2-valid victim, and the next host program paces
// exactly one copy before preempting — leaving the job parked with one
// copy plus the erase outstanding.
func parkPacedJob(t *testing.T, f *FTL) {
	t.Helper()
	if _, err := f.WriteStriped(0, seq(0, 20)); err != nil {
		t.Fatal(err)
	}
	if err := f.Trim(seq(0, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteStriped(1, seq(20, 1)); err != nil {
		t.Fatal(err)
	}
	if !f.GCJobInFlight() {
		t.Fatalf("no job parked: %+v", f.GCSchedStats())
	}
	st := f.GCSchedStats()
	if st.JobsStarted != 1 || st.VictimsBackground != 1 || st.PacedSteps != 1 || st.Preempts != 1 {
		t.Fatalf("parked-state stats = %+v", st)
	}
	// The parked victim stays full and off the free list: the full
	// invariant suite must hold with the job mid-victim.
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("invariants with parked job: %v", err)
	}
}

func TestPacedGCPreemptsAndResumes(t *testing.T) {
	f := mustNew(t, onePlaneParams())
	f.EnableGCScheduler(GCSchedConfig{}) // pace default 1
	parkPacedJob(t, f)
	// An idle slice resumes the parked job and drains it: the remaining
	// copy, then the erase, one completed collection.
	if n := f.ScheduleGC(2, 30_000_000); n != 1 {
		t.Fatalf("resuming slice collected %d victims, want 1", n)
	}
	if f.GCJobInFlight() {
		t.Fatal("full-budget slice left the job in flight")
	}
	st := f.GCSchedStats()
	if st.Resumes != 1 || st.JobsCompleted != 1 {
		t.Fatalf("resume stats = %+v", st)
	}
	// lpns 0 and 1 were trimmed; everything else must have survived the
	// split collection.
	for lpn := int64(2); lpn < 21; lpn++ {
		if !f.Mapped(lpn) {
			t.Fatalf("lpn %d lost across the preempted collection", lpn)
		}
	}
	if f.Mapped(0) || f.Mapped(1) {
		t.Fatal("trimmed lpn came back to life")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestScheduledFinalizeRetiresOnEraseFault(t *testing.T) {
	// The job's finalize erase fails: the victim must be retired (not
	// freed), the job completes, and the mapping survives — through the
	// same finalizeJob retirement tail a greedy round ends in.
	f, inj, c := newFaulty(t, fault.Config{FailEraseOps: []int64{1}})
	// newFaulty uses tinyParams; rebuild on the one-plane geometry so the
	// victim layout is exact.
	f = mustNew(t, onePlaneParams())
	inj, err := fault.NewInjector(fault.Config{FailEraseOps: []int64{1}, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	f.EnableFaults(inj)
	c = fault.NewChecker(f)
	f.SetChecker(c)
	f.EnableGCScheduler(GCSchedConfig{})

	if _, err := f.WriteStriped(0, seq(0, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteStriped(1, seq(0, 3)); err != nil {
		t.Fatal(err)
	}
	if n := f.ScheduleGC(2, 30_000_000); n != 1 {
		t.Fatalf("collected %d, want 1 (a retirement is progress)", n)
	}
	if got := f.Stats().RetiredBlocks; got != 1 {
		t.Fatalf("RetiredBlocks = %d, want 1", got)
	}
	if got := f.GCSchedStats().JobsCompleted; got != 1 {
		t.Fatalf("JobsCompleted = %d, want 1", got)
	}
	if inj.Stats().EraseFails != 1 {
		t.Fatalf("injector erase fails = %d", inj.Stats().EraseFails)
	}
	for lpn := int64(0); lpn < 4; lpn++ {
		if !f.Mapped(lpn) {
			t.Fatalf("lpn %d lost when the finalize erase faulted", lpn)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleGCDegradedReturnsZero(t *testing.T) {
	f := mustNew(t, onePlaneParams())
	f.EnableGCScheduler(GCSchedConfig{})
	if _, err := f.WriteStriped(0, seq(0, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteStriped(1, seq(0, 3)); err != nil {
		t.Fatal(err)
	}
	f.ForceDegrade()
	if n := f.ScheduleGC(2, 1_000_000_000); n != 0 {
		t.Fatalf("degraded ScheduleGC collected %d victims", n)
	}
	if f.GCSchedStats().JobsStarted != 0 {
		t.Fatal("degraded ScheduleGC opened a job")
	}
	// Writes stay refused; the state must remain readable and consistent.
	if _, err := f.WriteStriped(3, seq(0, 1)); !errors.Is(err, fault.ErrReadOnly) {
		t.Fatalf("degraded write error = %v, want ErrReadOnly", err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMandatoryAdoptionFinishesParkedJob(t *testing.T) {
	// Park a job mid-victim, then write again with the free pool already
	// below gcLow: no ScheduleGC slice is ever granted and pacing never
	// finalizes (the erase is never paced), so the only way the job can
	// complete is maybeGC adopting and finishing it under mandatory
	// pressure — the excluded victim must re-enter circulation instead of
	// deadlocking the plane.
	f := mustNew(t, onePlaneParams())
	f.EnableGCScheduler(GCSchedConfig{})
	parkPacedJob(t, f)
	if _, err := f.WriteStriped(2, seq(21, 1)); err != nil {
		t.Fatal(err)
	}
	if f.GCJobInFlight() {
		t.Fatal("mandatory pressure left the job parked")
	}
	st := f.GCSchedStats()
	if st.JobsCompleted != 1 {
		t.Fatalf("adoption did not finish the job: %+v", st)
	}
	if st.PacedSteps != 2 {
		t.Fatalf("PacedSteps = %d, want 2 (one per host program)", st.PacedSteps)
	}
	if st.Resumes == 0 {
		t.Fatalf("adoption never resumed the job: %+v", st)
	}
	for lpn := int64(2); lpn < 22; lpn++ {
		if !f.Mapped(lpn) {
			t.Fatalf("lpn %d lost across the adopted collection", lpn)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
