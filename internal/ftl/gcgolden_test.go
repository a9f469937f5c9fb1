package ftl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"repro/internal/fault"
	"repro/internal/flash"
)

// gcTranscript digests everything garbage collection can move on an FTL:
// every Tap call with its arguments and every victim choice in order, each
// operation's result, and at the end each LPN's resolved translation, the
// FTL and scheduler counters, and every chip's and channel's free and busy
// times. It also counts the GC situations the golden must reach
// (gcCoverage), from the same hooks.
type gcTranscript struct {
	f   *FTL
	h   hash.Hash64
	buf [8]byte
	cov gcCoverage

	hostOp  bool        // inside a read, write or trim, not a ScheduleGC slice
	pending greedyRound // the greedy round chosen and not yet ended
}

// gcCoverage counts the GC situations a transcript went through.
type gcCoverage struct {
	crossChip   int64 // greedy migrations whose page left the victim's chip
	frontier    int64 // greedy victims that were a full frontier block
	adoptions   int64 // parked jobs finished by foreground GC (pacing off)
	abandoned   int64 // greedy rounds that ran out of space after moving pages
	retirements int64 // victims retired on an erase fault or grown-bad detection
}

func (c *gcCoverage) add(o gcCoverage) {
	c.crossChip += o.crossChip
	c.frontier += o.frontier
	c.adoptions += o.adoptions
	c.abandoned += o.abandoned
	c.retirements += o.retirements
}

// greedyRound is a greedy victim between its choice and its end: the LPNs
// its valid pages held when it was chosen, and the migration count then.
type greedyRound struct {
	active     bool
	victim     int
	chip       int
	migrations int64
	lpns       []int64
}

func newGCTranscript(f *FTL) *gcTranscript {
	d := &gcTranscript{f: f, h: fnv.New64a()}
	f.SetTap(d)
	f.victimHook = d.victim
	return d
}

func (d *gcTranscript) put(vs ...int64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
		d.h.Write(d.buf[:])
	}
}

func (d *gcTranscript) TapProgram(issue, done int64) { d.put(1, issue, done) }
func (d *gcTranscript) TapRead(issue, done int64)    { d.put(2, issue, done) }
func (d *gcTranscript) TapErase(issue, done int64)   { d.put(3, issue, done) }

func (d *gcTranscript) TapGC(pause int64, pagesMoved int) {
	d.put(4, pause, int64(pagesMoved))
	d.settle(true)
}

func (d *gcTranscript) TapGCPreempt(now int64, pagesMoved int) {
	d.put(5, now, int64(pagesMoved))
}

func (d *gcTranscript) TapGCResume(now int64, pagesMoved int) {
	d.put(6, now, int64(pagesMoved))
	// With pacing off, a host operation resumes a parked job only to
	// finish it under mandatory pressure.
	if d.hostOp && d.f.gcPace == 0 {
		d.cov.adoptions++
	}
}

// victim sees every victim choice before it is acted on. A greedy round
// still pending here ended without its TapGC: it was abandoned.
func (d *gcTranscript) victim(site victimSite, plane int, budgetNs int64, victim int) {
	d.settle(false)
	d.put(7, int64(site), int64(plane), budgetNs, int64(victim))
	if site != victimGreedy || victim < 0 {
		return
	}
	f := d.f
	if int32(victim) == f.activeBlock[plane] || int32(victim) == f.gcActive[plane] {
		d.cov.frontier++
	}
	r := greedyRound{
		active: true, victim: victim, chip: f.chip[plane],
		migrations: f.stats.GCMigrations, lpns: d.pending.lpns[:0],
	}
	base := f.p.PPN(victim, 0)
	for i := 0; i < f.p.PagesPerBlock; i++ {
		if f.arr.State(base+int64(i)) == flash.PageValid {
			r.lpns = append(r.lpns, f.owner(base+int64(i)))
		}
	}
	d.pending = r
}

// settle ends the pending greedy round, if any: it counts the round's
// pages that now sit on another chip and, for a round that ended without
// its TapGC (not completed) after moving pages, an abandonment. Only the
// round's own TapGC can fire while it is pending: it allocates with GC off,
// so no scheduler job runs inside it.
func (d *gcTranscript) settle(completed bool) {
	r := &d.pending
	if !r.active {
		return
	}
	f := d.f
	if !completed && f.stats.GCMigrations > r.migrations {
		d.cov.abandoned++
	}
	for _, lpn := range r.lpns {
		e := f.resolve(lpn)
		if e <= unmapped {
			continue
		}
		if b := f.p.BlockOfPPN(target(e)); b != r.victim && f.p.ChipOfBlock(b) != r.chip {
			d.cov.crossChip++
		}
	}
	r.active = false
}

// errCode folds an operation's error into the digest.
func errCode(err error) int64 {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, fault.ErrReadOnly):
		return 1
	default:
		return 2
	}
}

// finish digests the end state: each LPN's resolved translation, the
// counters, and the timeline's per-resource free and busy times.
func (d *gcTranscript) finish() uint64 {
	f := d.f
	for lpn := int64(0); lpn < f.LogicalPages(); lpn++ {
		d.put(int64(f.resolve(lpn)))
	}
	s := f.Stats()
	d.put(s.HostPrograms, s.HostReads, s.GCMigrations, s.GCRuns, s.Erases, s.Trims,
		s.ProgramRetries, s.RetiredBlocks, s.DegradedEntries, s.GCPauseNs)
	g := f.GCSchedStats()
	d.put(g.JobsStarted, g.JobsCompleted, g.JobsAbandoned, g.Preempts, g.Resumes, g.PacedSteps,
		g.VictimsIdle, g.VictimsBackground, g.VictimsMandatory, g.CostDeferred)
	for c := 0; c < f.p.Chips(); c++ {
		d.put(f.tl.ChipFree(c), f.tl.ChipBusy(c))
	}
	for ch := 0; ch < f.p.Channels; ch++ {
		d.put(f.tl.ChannelFree(ch), f.tl.ChannelBusy(ch))
	}
	d.cov.retirements = s.RetiredBlocks
	return d.h.Sum64()
}

// gcChurn drives a seeded mix of striped, block-bound and channel-bound
// writes, reads, trims and, on a scheduler device, budgeted GC slices.
// Three quarters of the addressed runs start in the first eighth of the
// logical space, so garbage gathers there while the rest stays mostly
// valid. Failed writes, read-only or out of space, do not stop it.
func gcChurn(d *gcTranscript, seed uint64, ops int, maxBatch int64) {
	f := d.f
	state := seed*0x9e3779b97f4a7c15 + 1
	next := func(n int64) int64 {
		state = state*6364136223846793005 + 1442695040888963407
		return int64(state>>33) % n
	}
	logical := f.LogicalPages()
	lpns := make([]int64, 0, maxBatch)
	var now int64
	for op := 0; op < ops; op++ {
		now += 20_000 + next(1_500_000)
		start := next(logical)
		if next(4) != 0 {
			start = next(logical / 8)
		}
		lpns = lpns[:0]
		for i, n := int64(0), 1+next(maxBatch); i < n; i++ {
			lpns = append(lpns, (start+i)%logical)
		}
		d.hostOp = true
		switch r := next(100); {
		case r < 40:
			t, err := f.WriteStriped(now, lpns)
			d.put(8, t.Transferred, t.Durable, errCode(err))
		case r < 52:
			t, err := f.WriteBlockBound(now, lpns)
			d.put(9, t.Transferred, t.Durable, errCode(err))
		case r < 64:
			t, err := f.WriteOnChannel(now, lpns, int(next(int64(f.p.Channels))))
			d.put(10, t.Transferred, t.Durable, errCode(err))
		case r < 78:
			done, err := f.Read(now, lpns)
			d.put(11, done, errCode(err))
		case r < 94:
			d.hostOp = false
			d.put(12, int64(f.ScheduleGC(now, 1+next(40_000_000))))
		default:
			d.put(13, errCode(f.Trim(lpns)))
		}
		d.settle(false)
	}
}

// TestGoldenGCTranscript pins greedy and scheduled garbage collection bit
// for bit: victims, migrations, erases, retirements, pause accounting, taps
// and the timeline, across scheduler modes and fault injection, on the
// 4-chip tiny geometry (one plane per chip, so every fallback migration
// crosses chips) and on ScaledParams(64). The churn must reach cross-chip
// greedy migrations, full frontier victims, erase-fault retirements,
// adoption of a parked job and greedy rounds abandoned after moving pages.
func TestGoldenGCTranscript(t *testing.T) {
	type mode struct {
		name  string
		sched bool
		pace  int
	}
	greedy := mode{"greedy", false, 0}
	paced := mode{"sched-pace0", true, 0}
	unpaced := mode{"sched-pace-1", true, -1}
	cases := []struct {
		scaled bool
		mode   mode
		faults bool
		fill   float64
		want   string
	}{
		{false, greedy, false, 0.90, "0120c75e74d76367"},
		{false, greedy, true, 0.95, "9c62d70d960f0a99"},
		{false, paced, false, 0.92, "cf5c1ea959690689"},
		{false, paced, true, 0.98, "60ef863a32963827"},
		{false, unpaced, false, 0.94, "07828f0d7061e080"},
		{false, unpaced, true, 0.96, "ce79d0ecf23e9b0b"},
		{true, greedy, false, 0.98, "82c0561bd99ba711"},
		{true, greedy, true, 0.95, "dd14285fe7379ebe"},
		{true, paced, false, 0.96, "aa0823951bfd7172"},
		{true, paced, true, 0.90, "1721a616c35412e9"},
		{true, unpaced, false, 0.97, "afddf70b733269b0"},
		{true, unpaced, true, 0.93, "0b940989546811e0"},
	}
	var cov gcCoverage
	for i, tc := range cases {
		p, geometry, ops, batch := tinyParams(), "tiny", 3000, int64(8)
		if tc.scaled {
			p, geometry, ops, batch = flash.ScaledParams(64), "scaled64", 4000, 48
		}
		name := fmt.Sprintf("%s/%s/faults=%v", geometry, tc.mode.name, tc.faults)
		t.Run(name, func(t *testing.T) {
			f := mustNew(t, p)
			if err := f.Precondition(tc.fill); err != nil {
				t.Fatal(err)
			}
			seed := uint64(i + 1)
			if tc.faults {
				cfg := fault.Config{Seed: seed, EraseFailProb: 0.02, GrownBadProb: 0.02, ReserveBlocks: 10}
				if tc.scaled {
					cfg = fault.Config{Seed: seed, EraseFailProb: 0.01, GrownBadProb: 0.01}
				}
				inj, err := fault.NewInjector(cfg)
				if err != nil {
					t.Fatal(err)
				}
				f.EnableFaults(inj)
			}
			if tc.mode.sched {
				f.EnableGCScheduler(GCSchedConfig{PaceSteps: tc.mode.pace})
			}
			d := newGCTranscript(f)
			gcChurn(d, seed, ops, batch)
			got := fmt.Sprintf("%016x", d.finish())
			if err := f.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			cov.add(d.cov)
			t.Logf("%s: %+v %+v coverage %+v", got, f.Stats(), f.GCSchedStats(), d.cov)
			if got != tc.want {
				t.Errorf("GC transcript digest changed: got %s, want %s", got, tc.want)
			}
		})
	}
	t.Logf("coverage %+v", cov)
	if cov.crossChip == 0 || cov.frontier == 0 || cov.adoptions == 0 || cov.abandoned == 0 || cov.retirements == 0 {
		t.Fatalf("churn too gentle: %+v", cov)
	}
}
