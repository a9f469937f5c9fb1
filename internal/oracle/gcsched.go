package oracle

import (
	"fmt"
	"math/rand"

	"repro/internal/cache"
	"repro/internal/ftl"
)

// ModeGCSched selects the GC-scheduling differential: THREE FTLs over the
// same tiny geometry replayed in lockstep on one write/trim stream —
//
//   - a fast FTL with plain greedy GC (the paper-literal baseline),
//   - a fast FTL with the preemptible scheduler enabled, driven by
//     budgeted idle slices whose budgets come deterministically from the
//     spec seed (so jobs are preempted at every possible boundary across
//     a campaign),
//   - the naive oracle FTL, which stamps page contents ("GC never loses
//     a live page").
//
// Physical placement is policy, not contract: the three are required to
// agree on the live logical set at every checkpoint and to pass their
// full invariant suites even while a scheduled job is parked mid-victim.
// A budgeted slice on the greedy side must also be a strict no-op — the
// bit-identical-when-disabled guarantee.
const ModeGCSched = "gcsched"

// GCSchedFlavors are the write-stream shapes the gcsched differential
// sweeps (the Spec.Policy values of ModeGCSched): pure striped writes,
// pure block-bound writes, an alternating mix, and a mix with trims —
// each stresses a different allocator/GC interaction.
var GCSchedFlavors = []string{"striped", "bound", "mixed", "trim-mix"}

// gcschedMaxBudgetNs bounds the per-probe idle budget: a touch above one
// worst-case collection on the tiny geometry (3 copies + erase ≈ 21 ms),
// so the seed-derived budgets cover everything from "preempt before the
// first copy" to "finish with room to spare".
const gcschedMaxBudgetNs = 30_000_000

// runGCSched replays a ModeGCSched Spec through the greedy/scheduled/
// oracle triple and returns the first divergence.
func runGCSched(spec Spec) *Divergence {
	params := diffFTLGeometry()
	greedy, err := ftl.New(params)
	if err != nil {
		return &Divergence{Spec: spec, Step: -1, Kind: "ftl", Detail: err.Error()}
	}
	sched, err := ftl.New(params)
	if err != nil {
		return &Divergence{Spec: spec, Step: -1, Kind: "ftl", Detail: err.Error()}
	}
	sched.EnableGCScheduler(ftl.GCSchedConfig{})
	ora := NewFTL(params.Planes(), params.BlocksPerPlane, params.PagesPerBlock, params.LogicalPages(), 2)
	diverge := func(step int, kind, detail string) *Divergence {
		return &Divergence{Spec: spec, Step: step, Kind: kind, Detail: detail}
	}

	// Budget stream: splitmix64 of the seed, independent of math/rand so a
	// saved repro replays bit-identically across Go versions.
	budgetState := uint64(spec.Seed)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
	nextBudget := func() int64 {
		budgetState += 0x9e3779b97f4a7c15
		z := budgetState
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return int64(z % (gcschedMaxBudgetNs + 1))
	}

	var stamp uint64
	var now int64
	for i, req := range spec.Requests {
		now = req.Time
		lpns := make([]int64, req.Pages)
		for k := range lpns {
			lpns[k] = req.LPN + int64(k)
		}
		if !req.Write {
			// Trim on all three sides (reads don't change FTL state).
			if err := greedy.Trim(lpns); err != nil {
				return diverge(i, "ftl", "greedy trim: "+err.Error())
			}
			if err := sched.Trim(lpns); err != nil {
				return diverge(i, "ftl", "scheduled trim: "+err.Error())
			}
			ora.Trim(lpns)
		} else {
			stamps := make([]uint64, len(lpns))
			for k := range stamps {
				stamp++
				stamps[k] = stamp
			}
			bound := false
			switch spec.Policy {
			case "bound":
				bound = true
			case "mixed", "trim-mix":
				bound = i%2 == 1
			}
			var gErr, sErr, oErr error
			if bound {
				_, gErr = greedy.WriteBlockBound(now, lpns)
				_, sErr = sched.WriteBlockBound(now, lpns)
				oErr = ora.WriteBlockBound(lpns, stamps)
			} else {
				_, gErr = greedy.WriteStriped(now, lpns)
				_, sErr = sched.WriteStriped(now, lpns)
				oErr = ora.WriteStriped(lpns, stamps)
			}
			if gErr != nil {
				return diverge(i, "ftl", "greedy ftl: "+gErr.Error())
			}
			if sErr != nil {
				return diverge(i, "ftl", "scheduled ftl: "+sErr.Error())
			}
			if oErr != nil {
				return diverge(i, "ftl", "oracle ftl: "+oErr.Error())
			}
		}

		if spec.IdleEvery > 0 && (i+1)%spec.IdleEvery == 0 {
			budget := nextBudget()
			sched.ScheduleGC(now+1, budget)
			// The greedy side has no scheduler: a budgeted slice must be a
			// strict no-op there (the disabled contract).
			if n := greedy.ScheduleGC(now+1, budget); n != 0 {
				return diverge(i, "sched", fmt.Sprintf(
					"ScheduleGC on a scheduler-less FTL collected %d victims", n))
			}
			// Mid-job state must satisfy the full invariant suite: the
			// parked victim stays off the free list and keeps legal flags.
			if err := sched.CheckInvariants(); err != nil {
				return diverge(i, "invariant", "scheduled ftl mid-job: "+err.Error())
			}
			if d := diffGCSchedMapped(greedy, sched, ora); d != "" {
				return diverge(i, "mapping", d)
			}
		}

		if (i+1)%membershipEvery == 0 {
			if d := checkGCSchedState(greedy, sched, ora); d != "" {
				return diverge(i, "invariant", d)
			}
			if d := diffGCSchedMapped(greedy, sched, ora); d != "" {
				return diverge(i, "mapping", d)
			}
		}
	}

	// Drain any job still parked mid-victim; completion must not change
	// the logical state either. A full-budget slice always finishes at
	// least one step, but it may also START a fresh idle-tier victim with
	// leftover budget and preempt it — so the bound is the total
	// reclaimable work on the device (every block fully collected), not
	// one victim's step count.
	maxSlices := params.Planes() * params.BlocksPerPlane * (params.PagesPerBlock + 2)
	for drained := 0; sched.GCJobInFlight(); drained++ {
		if drained > maxSlices {
			return diverge(-1, "sched", "GC job refuses to drain")
		}
		now++
		sched.ScheduleGC(now, gcschedMaxBudgetNs)
	}
	if d := checkGCSchedState(greedy, sched, ora); d != "" {
		return diverge(-1, "invariant", d)
	}
	if d := diffGCSchedMapped(greedy, sched, ora); d != "" {
		return diverge(-1, "mapping", d)
	}
	return nil
}

// diffGCSchedMapped compares the live logical sets of the triple. The
// oracle's stamp bookkeeping (checked by its invariant suite) extends the
// mapping agreement to content: a page all three agree is live holds the
// bytes its last write put there.
func diffGCSchedMapped(greedy, sched *ftl.FTL, ora *FTL) string {
	for lpn := int64(0); lpn < ora.LogicalPages(); lpn++ {
		g, s, o := greedy.Mapped(lpn), sched.Mapped(lpn), ora.Mapped(lpn)
		if g != s || s != o {
			return fmt.Sprintf("lpn %d: greedy mapped=%v, scheduled mapped=%v, oracle mapped=%v", lpn, g, s, o)
		}
	}
	return ""
}

// checkGCSchedState runs all three invariant suites.
func checkGCSchedState(greedy, sched *ftl.FTL, ora *FTL) string {
	if err := greedy.CheckInvariants(); err != nil {
		return "greedy ftl: " + err.Error()
	}
	if err := sched.CheckInvariants(); err != nil {
		return "scheduled ftl: " + err.Error()
	}
	if err := ora.CheckInvariants(); err != nil {
		return "oracle ftl: " + err.Error()
	}
	return ""
}

// GenerateGCSched derives a deterministic randomized ModeGCSched workload.
// The stream is write-heavy (trim-mix adds trims), stays inside the tiny
// FTL's logical space, and always probes idle slices — the probes are the
// point of the mode.
func GenerateGCSched(seed int64, flavor string, n int) Spec {
	rng := rand.New(rand.NewSource(seed))
	s := Spec{
		Seed:          seed,
		Mode:          ModeGCSched,
		Policy:        flavor,
		CapacityPages: 16, // unused by the mode; satisfies spec validation
		PagesPerBlock: 4,
		IdleEvery:     5 + rng.Intn(20),
	}
	writePct := 100
	if flavor == "trim-mix" {
		writePct = 70 + rng.Intn(21) // 70..90 percent writes, rest trims
	}
	// The live set stays well under the logical space (as the cache bounds
	// it to in classic mode): block-bound batches skew pages onto single
	// planes, and a near-full naive FTL can wedge on per-plane imbalance
	// the real allocator's cross-plane fallback would absorb.
	lpnRange := int64(64 - maxGenPages)
	now := int64(0)
	s.Requests = make([]cache.Request, 0, n)
	for i := 0; i < n; i++ {
		now += 1 + int64(rng.Intn(5000))
		pages := 1 + rng.Intn(maxGenPages)
		s.Requests = append(s.Requests, cache.Request{
			Time:  now,
			Write: rng.Intn(100) < writePct,
			LPN:   rng.Int63n(lpnRange - int64(pages) + 1),
			Pages: pages,
		})
	}
	return s
}
