// Latency-aware GC scheduling: greedy gcOnce collects a whole victim
// synchronously inside the write path, charging the full pause to whichever
// request was unlucky. The scheduler in this file splits a collection into
// resumable per-page copy steps around an explicit job state machine, so GC
// can run in budgeted slices during idle windows, be preempted mid-victim
// when foreground work arrives, and resume later — trading a little extra
// bookkeeping for a much flatter pause tail.
//
// Urgency tiers, driven by the per-plane free-block watermarks:
//
//   - idle-only (free ≥ soft low): victims are collected exclusively inside
//     ScheduleGC budget slices, and only when cheap — at most half the block
//     valid and the whole projected cost within the current slice budget.
//   - background-paced (gcLow ≤ free < soft low): in addition to idle
//     slices, a bounded number of copy steps piggyback on each host program
//     (never the erase), spreading the migration cost across many requests.
//   - mandatory (free < gcLow): maybeGC adopts and finishes any in-flight
//     job on the plane, then falls back to the greedy loop — correctness
//     and forward progress exactly as without the scheduler.
//
// Victim selection weighs projected pause cost (valid pages × copy latency
// plus the erase) against free-block pressure instead of valid count alone,
// so an expensive victim on a healthy plane loses to a slightly worse ratio
// on a starving one.
//
// Everything here is strictly opt-in: until EnableGCScheduler is called no
// job is ever active and every hook in the greedy paths reduces to one
// predictable false branch, keeping such runs bit-identical to greedy GC.
package ftl

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/flash"
)

// GC urgency tiers (job attribution uses the tier at selection time).
const (
	gcTierIdle = iota
	gcTierBackground
	gcTierMandatory
)

// victimSite names the code path choosing a GC victim (FTL.victimHook).
type victimSite uint8

const (
	victimGreedy     victimSite = iota // gcOnce
	victimJob                          // startJob
	victimJobOnPlane                   // startJobOnPlane
)

// GCSchedConfig configures the preemptible GC scheduler. The per-plane
// free-block watermark separating the idle-only tier from background
// pacing is 2× the foreground GC threshold.
type GCSchedConfig struct {
	// PaceSteps bounds how many GC copy steps piggyback on one host page
	// program while a plane sits in the background tier. 0 selects the
	// default of 1; negative disables pacing entirely (idle slices and
	// mandatory adoption still run).
	PaceSteps int
}

// GCSchedStats counts scheduler activity. All counters are cumulative.
type GCSchedStats struct {
	// JobsStarted counts victim jobs opened (any tier).
	JobsStarted int64
	// JobsCompleted counts jobs that reached the erase (freed or retired).
	JobsCompleted int64
	// JobsAbandoned counts jobs dropped mid-victim because a migration
	// allocation failed (degraded or exhausted device). The victim stays
	// full and every completed copy is individually consistent, so
	// abandonment never risks data.
	JobsAbandoned int64
	// Preempts counts slices that ended with a job still in flight.
	Preempts int64
	// Resumes counts slices that picked an in-flight job back up.
	Resumes int64
	// PacedSteps counts copy steps piggybacked on host programs.
	PacedSteps int64
	// VictimsIdle/VictimsBackground/VictimsMandatory attribute started
	// jobs (and, for mandatory, greedy rounds run with the scheduler on)
	// to the urgency tier that selected them.
	VictimsIdle       int64
	VictimsBackground int64
	VictimsMandatory  int64
	// CostDeferred counts idle slices that found reclaimable victims but
	// deferred all of them on the cost gate (too valid, or projected cost
	// beyond the remaining budget).
	CostDeferred int64
}

// gcJob is the resumable state of one in-flight victim collection. At most
// one job exists per FTL; its victim block stays full (hence excluded from
// re-selection and allocation) until the finalize erase, so mapping and
// free-page invariants hold at every step boundary.
type gcJob struct {
	active  bool
	plane   int
	victim  int
	chip    int
	next    int   // next page index of the victim to examine
	moved   int   // valid pages migrated so far
	pauseNs int64 // die-busy time accrued so far (sum of step deltas)
	tier    uint8 // urgency tier at selection time
}

// EnableGCScheduler turns the preemptible GC scheduler on; an FTL that
// never calls it stays on plain greedy GC. Must not be called while a job
// is in flight.
func (f *FTL) EnableGCScheduler(cfg GCSchedConfig) {
	if f.job.active {
		panic("ftl: EnableGCScheduler with a GC job in flight")
	}
	f.gcSched = true
	f.gcSoftLow = f.gcLow * 2
	switch {
	case cfg.PaceSteps == 0:
		f.gcPace = 1
	case cfg.PaceSteps < 0:
		f.gcPace = 0
	default:
		f.gcPace = cfg.PaceSteps
	}
}

// GCSchedulerEnabled reports whether the preemptible scheduler is on.
func (f *FTL) GCSchedulerEnabled() bool { return f.gcSched }

// GCSchedStats returns a copy of the scheduler counters.
func (f *FTL) GCSchedStats() GCSchedStats { return f.sched }

// GCJobInFlight reports whether a preempted victim collection is pending.
func (f *FTL) GCJobInFlight() bool { return f.job.active }

// copyStepCost is the projected die time of migrating one valid page.
func (f *FTL) copyStepCost() int64 { return f.p.ReadLatency + f.p.ProgramLatency }

// ScheduleGC runs preemptible garbage collection for at most budgetNs of
// projected die time, resuming any in-flight job first and preempting
// cleanly when the next step would not fit. It returns the number of victim
// collections completed (a retirement counts: the candidate pool shrank).
// It is the one idle-time GC, driven from the engine's between-request gaps
// and the service front-end's queue-empty signal; it is a no-op unless
// EnableGCScheduler was called.
func (f *FTL) ScheduleGC(now, budgetNs int64) int {
	if !f.gcSched || f.degraded || budgetNs <= 0 {
		return 0
	}
	if f.job.active {
		f.noteResume(now)
	}
	collected := 0
	budget := budgetNs
	for !f.degraded {
		if !f.job.active && !f.startJob(budget) {
			break
		}
		step := f.nextStepCost()
		if step > budget {
			f.notePreempt(now)
			return collected
		}
		budget -= step
		done, progress := f.stepJob(now)
		if done && progress {
			collected++
		}
	}
	if f.job.active {
		// Degraded mid-slice with the job still open: leave it for the
		// mandatory path (which refuses to run degraded anyway).
		f.notePreempt(now)
	}
	return collected
}

// startJob selects a victim across all planes, weighing projected pause
// cost against free-block pressure: the candidate minimizing
// cost/pressure wins (compared cross-multiplied in integers; ties keep the
// first candidate in plane-then-block order, so selection is
// deterministic). Idle-tier candidates additionally pass a cost gate — at
// most half the block valid and projected cost within the remaining
// budget — because with no pressure there is no reason to buy expensive
// write amplification. Reports false when no candidate qualifies.
//
// Pressure is constant within a plane and cost rises with valid count, so
// a plane's best candidate is its greedy victim, and when that victim
// fails the gate so does every block on the plane. One candidate per plane
// therefore decides. (Cost rises as long as a page copy takes time; with
// zero read and program latencies every candidate on a plane costs the
// same, and the greedy victim is the one taken.)
func (f *FTL) startJob(budgetNs int64) bool {
	copyCost := f.copyStepCost()
	victim, victimPlane := -1, -1
	var victimTier uint8
	var bestCost, bestPress int64
	deferred := false
	for pl := range f.freeBlocks {
		b, v := f.arr.GreedyVictim(pl, int(f.activeBlock[pl]), int(f.gcActive[pl]))
		if b < 0 {
			continue
		}
		free := len(f.freeBlocks[pl])
		tier := uint8(gcTierIdle)
		if free < f.gcSoftLow {
			tier = gcTierBackground
		}
		pressure := int64(f.gcSoftLow-free) + 1
		if pressure < 1 {
			pressure = 1
		}
		cost := int64(v)*copyCost + f.p.EraseLatency
		if tier == gcTierIdle && (2*v > f.p.PagesPerBlock || cost > budgetNs) {
			deferred = true
			continue
		}
		if victim < 0 || cost*bestPress < bestCost*pressure {
			victim, victimPlane, victimTier = b, pl, tier
			bestCost, bestPress = cost, pressure
		}
	}
	if f.victimHook != nil {
		f.victimHook(victimJob, -1, budgetNs, victim)
	}
	if victim < 0 {
		if deferred {
			f.sched.CostDeferred++
		}
		return false
	}
	f.openJob(victim, victimPlane, victimTier)
	return true
}

// startJobOnPlane opens a background-tier job on one specific plane with
// the plain greedy victim (fewest valid pages) — pressure is constant
// within a plane, so the cost/pressure score reduces to valid count. The
// plane's open frontiers are skipped even when full.
func (f *FTL) startJobOnPlane(plane int) bool {
	victim, _ := f.arr.GreedyVictim(plane, int(f.activeBlock[plane]), int(f.gcActive[plane]))
	if f.victimHook != nil {
		f.victimHook(victimJobOnPlane, plane, 0, victim)
	}
	if victim < 0 {
		return false
	}
	f.openJob(victim, plane, gcTierBackground)
	return true
}

func (f *FTL) openJob(victim, plane int, tier uint8) {
	f.job = gcJob{
		active: true, plane: plane, victim: victim,
		chip: f.chip[plane], tier: tier,
	}
	f.sched.JobsStarted++
	switch tier {
	case gcTierIdle:
		f.sched.VictimsIdle++
	case gcTierBackground:
		f.sched.VictimsBackground++
	default:
		f.sched.VictimsMandatory++
	}
}

// nextStepCost is the projected die time of the job's next unit: one page
// copy while valid pages remain, otherwise the finalize erase.
func (f *FTL) nextStepCost() int64 {
	if f.jobHasCopyLeft() {
		return f.copyStepCost()
	}
	return f.p.EraseLatency
}

// jobHasCopyLeft reports whether a valid page remains to migrate.
func (f *FTL) jobHasCopyLeft() bool {
	base := f.p.PPN(f.job.victim, 0)
	for i := f.job.next; i < f.p.PagesPerBlock; i++ {
		if f.arr.State(base+int64(i)) == flash.PageValid {
			return true
		}
	}
	return false
}

// stepJob executes one unit of the in-flight job: the next valid-page copy,
// or the finalize erase when none remain. Each step charges its own
// die-busy delta to Stats.GCPauseNs (and the job's running total), so
// pauses attribute to whichever slice actually incurred them. Returns
// done=true when the job ended this step, with progress=true unless it was
// abandoned on a failed migration allocation.
func (f *FTL) stepJob(now int64) (done, progress bool) {
	j := &f.job
	base := f.p.PPN(j.victim, 0)
	for j.next < f.p.PagesPerBlock {
		ppn := base + int64(j.next)
		if f.arr.State(ppn) != flash.PageValid {
			j.next++
			continue
		}
		sliceStart := max(now, f.tl.ChipFree(j.chip))
		lpn := f.owner(ppn)
		newPPN, tgt, _, err := f.allocPage(now, j.plane, false)
		if err != nil {
			// No destination for the migration (degraded, or the device is
			// out of free blocks). Abandon: the victim is still full and
			// every completed copy is individually consistent, so the
			// mapping stays valid — we just made no further progress.
			f.sched.JobsAbandoned++
			f.job = gcJob{}
			return true, false
		}
		if err := f.arr.Invalidate(ppn); err != nil {
			panic(fmt.Sprintf("ftl: gc invalidate: %v", err))
		}
		f.reverse[ppn] = unmapped
		f.mapping[lpn] = entry(newPPN)
		f.reverse[newPPN] = entry(lpn)
		if tgtChip := f.chip[tgt]; tgtChip == j.chip {
			f.tl.Copyback(now, j.chip)
		} else {
			f.tl.Read(now, f.channel[j.plane], j.chip)
			f.tl.Program(now, f.channel[tgt], tgtChip)
		}
		f.stats.GCMigrations++
		j.moved++
		j.next++
		pause := f.tl.ChipFree(j.chip) - sliceStart
		j.pauseNs += pause
		f.stats.GCPauseNs += pause
		return false, false
	}
	return true, f.finalizeJob(now)
}

// finalizeJob erases the job's victim, mirroring gcOnce's erase tail:
// success frees the block, an injected erase failure or grown-bad
// detection retires it (both complete the job and count as progress — the
// candidate pool shrank). TapGC fires once here with the job's cumulative
// pause and page count, so downstream GC telemetry sees one collection per
// victim whether it ran in one slice or ten.
func (f *FTL) finalizeJob(now int64) bool {
	j := &f.job
	sliceStart := max(now, f.tl.ChipFree(j.chip))
	f.aged.first[j.victim] = unmapped
	err := f.arr.Erase(j.victim)
	if err != nil && !errors.Is(err, fault.ErrEraseFail) && !errors.Is(err, fault.ErrGrownBad) {
		panic(fmt.Sprintf("ftl: gc erase: %v", err))
	}
	eraseDone := f.tl.Erase(now, j.chip)
	if err != nil {
		// The attempt occupied the die either way; the block is bad and
		// never returns to the free list. Valid pages were migrated before
		// the erase, so no data is at risk.
		f.retireBlock(j.victim)
	} else {
		f.putFree(j.plane, int32(j.victim))
		f.stats.GCRuns++
	}
	pause := f.tl.ChipFree(j.chip) - sliceStart
	j.pauseNs += pause
	f.stats.GCPauseNs += pause
	if f.tap != nil {
		f.tap.TapErase(now, eraseDone)
		f.tap.TapGC(j.pauseNs, j.moved)
	}
	f.sched.JobsCompleted++
	f.job = gcJob{}
	return true
}

// finishJob runs the in-flight job to completion with no budget — the
// mandatory-tier adoption path used by maybeGC when the job's plane drops
// below the foreground threshold.
func (f *FTL) finishJob(now int64) {
	for f.job.active {
		f.stepJob(now)
	}
}

// paceGC piggybacks up to PaceSteps copy steps on one host page program
// while the target plane sits in the background tier, resuming an in-flight
// job on any plane first. The finalize erase is never paced — a 15 ms erase
// on the write path is exactly the pause the scheduler exists to avoid — so
// a copies-done job waits for the next idle slice or mandatory adoption.
func (f *FTL) paceGC(now int64, plane int) {
	if f.gcPace <= 0 || f.degraded {
		return
	}
	if !f.job.active {
		free := len(f.freeBlocks[plane])
		if free < f.gcLow || free >= f.gcSoftLow {
			return // mandatory is maybeGC's job; healthy planes wait for idle
		}
		if !f.startJobOnPlane(plane) {
			return
		}
	} else {
		f.noteResume(now)
	}
	for steps := f.gcPace; steps > 0 && f.job.active && f.jobHasCopyLeft(); steps-- {
		f.stepJob(now)
		f.sched.PacedSteps++
	}
	if f.job.active {
		f.notePreempt(now)
	}
}

func (f *FTL) notePreempt(now int64) {
	f.sched.Preempts++
	if f.tap != nil {
		f.tap.TapGCPreempt(now, f.job.moved)
	}
}

func (f *FTL) noteResume(now int64) {
	f.sched.Resumes++
	if f.tap != nil {
		f.tap.TapGCResume(now, f.job.moved)
	}
}
