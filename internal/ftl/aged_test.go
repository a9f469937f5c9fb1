package ftl

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/flash"
)

// resolvedPPN is the PPN lpn translates to, or -1 when it is unmapped.
func resolvedPPN(f *FTL, lpn int64) int64 {
	if e := f.resolve(lpn); e > unmapped {
		return target(e)
	}
	return -1
}

// diffFTL compares two FTLs over one geometry and returns "" when they
// match. Every LPN's PPN and every valid page's owner are compared by
// resolution, because an aged FTL leaves zero the entries an eagerly
// filled one writes; every other field, the array and the counters
// included, by reflect.DeepEqual.
func diffFTL(got, want *FTL) string {
	if g, w := got.Stats(), want.Stats(); g != w {
		return fmt.Sprintf("stats %+v, want %+v", g, w)
	}
	if !reflect.DeepEqual(got.arr, want.arr) {
		return "flash arrays differ"
	}
	for lpn := range got.mapping {
		if g, w := resolvedPPN(got, int64(lpn)), resolvedPPN(want, int64(lpn)); g != w {
			return fmt.Sprintf("lpn %d maps to ppn %d, want %d", lpn, g, w)
		}
	}
	for ppn := range got.reverse {
		if got.arr.State(int64(ppn)) != flash.PageValid {
			continue
		}
		if g, w := got.owner(int64(ppn)), want.owner(int64(ppn)); g != w {
			return fmt.Sprintf("ppn %d holds lpn %d, want %d", ppn, g, w)
		}
	}
	g, w := *got, *want
	g.mapping, g.reverse, g.aged = nil, nil, agedExtent{}
	w.mapping, w.reverse, w.aged = nil, nil, agedExtent{}
	if !reflect.DeepEqual(g, w) {
		return "fields beside the translation tables differ"
	}
	return ""
}

// agedGeometries are the devices aged and eager fills are churned on: the
// tiny two-planes-per-chip device whose blocks hold six pages, a GC-heavy
// four-plane device, and a 16-plane device striped like the paper's, with
// ten-page blocks.
func agedGeometries() []flash.Params {
	wide := flash.DefaultParams()
	wide.BlocksPerPlane = 12
	wide.PagesPerBlock = 10
	wide.GCThreshold = 0.2
	return []flash.Params{fillGeometries()["tiny"], gcHeavyParams(), wide}
}

// agedCase is one aged-versus-eager run.
type agedCase struct {
	p        flash.Params
	fraction float64
	preWear  bool   // pre-wear before the fill, so blocks open out of index order
	faults   uint64 // nonzero: attach injectors seeded with it after the fill
	sched    bool   // the preemptible GC scheduler on
}

func (c agedCase) String() string {
	return fmt.Sprintf("%dx%dx%d planes x %d blocks x %d pages/fraction=%g/prewear=%v/faults=%d/sched=%v",
		c.p.Channels, c.p.ChipsPerChannel, c.p.PlanesPerChip, c.p.BlocksPerPlane, c.p.PagesPerBlock,
		c.fraction, c.preWear, c.faults, c.sched)
}

// build returns the case's FTL filled by Precondition (aged) or by the
// per-page reference (eager), with its features attached.
func (c agedCase) build(t testing.TB, aged bool) *FTL {
	t.Helper()
	f, err := New(c.p)
	if err != nil {
		t.Fatal(err)
	}
	if c.preWear {
		f.PreWear(c.faults+3, 12, 5)
	}
	fill := preconditionPerPage
	if aged {
		fill = (*FTL).Precondition
	}
	if err := fill(f, c.fraction); err != nil {
		t.Fatalf("%v: aged=%v: %v", c, aged, err)
	}
	if c.faults != 0 {
		inj, err := fault.NewInjector(fault.Config{
			Seed: c.faults, ProgramFailProb: 0.004, EraseFailProb: 0.01, GrownBadProb: 0.01, ReserveBlocks: 12,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.EnableFaults(inj)
	}
	if c.sched {
		f.EnableGCScheduler(GCSchedConfig{})
	}
	return f
}

// agedOp applies the op encoded by three bytes to f and renders what it
// returned. The first byte picks the kind and the page count, the next two
// the first LPN (or the GC budget) and the time step.
func agedOp(f *FTL, now *int64, b0, b1, b2 byte) (string, error) {
	logical := f.LogicalPages()
	v := int64(b1)<<8 | int64(b2)
	*now += 50_000 + int64(b2)*10_000
	lpns := make([]int64, 1+int(b0/8)%8)
	stride := 1 + int64(b0/64)*7
	for i := range lpns {
		lpns[i] = (v + int64(i)*stride) % logical
	}
	switch b0 % 8 {
	case 0, 1:
		t, err := f.WriteStriped(*now, lpns)
		return fmt.Sprint(t), err
	case 2:
		t, err := f.WriteBlockBound(*now, lpns)
		return fmt.Sprint(t), err
	case 3:
		t, err := f.WriteOnChannel(*now, lpns, int(v)%f.p.Channels)
		return fmt.Sprint(t), err
	case 4, 5:
		t, err := f.Read(*now, lpns)
		return fmt.Sprint(t), err
	case 6:
		return "", f.Trim(lpns)
	default:
		return fmt.Sprint(f.ScheduleGC(*now, v*1_000)), nil
	}
}

// agedReach tallies what a run reached, so campaigns can require their paths.
type agedReach struct {
	gcRuns, migrations, trims, jobs, retired int64
	forgotten                                int // aged blocks erased or retired
}

// runAgedOps churns the case's aged and eager FTLs through the same ops,
// three bytes each, and fails t at the first op after which they answer
// differently, differ by diffFTL, or fail CheckInvariants. An op both
// refuse alike (read-only, out of free blocks) is not a failure.
func runAgedOps(t testing.TB, c agedCase, ops []byte) agedReach {
	t.Helper()
	aged, eager := c.build(t, true), c.build(t, false)
	if d := diffFTL(aged, eager); d != "" {
		t.Fatalf("%v: after the fill: %s", c, d)
	}
	var nowA, nowE int64
	for i := 0; i+3 <= len(ops); i += 3 {
		gotOut, gotErr := agedOp(aged, &nowA, ops[i], ops[i+1], ops[i+2])
		wantOut, wantErr := agedOp(eager, &nowE, ops[i], ops[i+1], ops[i+2])
		if gotOut != wantOut || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%v: op %d % x: aged answers %s, %v; eager %s, %v",
				c, i/3, ops[i:i+3], gotOut, gotErr, wantOut, wantErr)
		}
		if d := diffFTL(aged, eager); d != "" {
			t.Fatalf("%v: op %d % x: %s", c, i/3, ops[i:i+3], d)
		}
		for k, f := range []*FTL{aged, eager} {
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("%v: op %d % x: %s: %v", c, i/3, ops[i:i+3], [...]string{"aged", "eager"}[k], err)
			}
		}
	}
	s := aged.Stats()
	r := agedReach{
		gcRuns: s.GCRuns, migrations: s.GCMigrations, trims: s.Trims,
		jobs: aged.GCSchedStats().JobsCompleted, retired: s.RetiredBlocks,
	}
	for _, b := range aged.aged.blocks {
		if aged.aged.first[b] == unmapped {
			r.forgotten++
		}
	}
	return r
}

// TestAgedExtentMatchesEagerFill churns an FTL whose fill left the aged
// extent and one filled page by page through the same randomized striped,
// block-bound and channel writes, reads, trims and ScheduleGC slices at
// 0.9-0.98 fill, where greedy GC runs from the first writes. Runs cover
// pre-wear on and off, fault injectors attached after the fill, and the
// scheduler on and off. After every op the two must answer alike and
// match by diffFTL, and both must pass CheckInvariants.
func TestAgedExtentMatchesEagerFill(t *testing.T) {
	fractions := []float64{0.9, 0.94, 0.98}
	rng := rand.New(rand.NewPCG(7, 1))
	var total agedReach
	run := 0
	for _, p := range agedGeometries() {
		for _, preWear := range []bool{false, true} {
			for _, faults := range []uint64{0, 1} {
				for _, sched := range []bool{false, true} {
					run++
					c := agedCase{
						p: p, fraction: fractions[run%len(fractions)], preWear: preWear,
						faults: faults * uint64(run), sched: sched,
					}
					ops := make([]byte, 3*400)
					for i := range ops {
						ops[i] = byte(rng.Uint32())
					}
					r := runAgedOps(t, c, ops)
					total.gcRuns += r.gcRuns
					total.migrations += r.migrations
					total.trims += r.trims
					total.jobs += r.jobs
					total.retired += r.retired
					total.forgotten += r.forgotten
				}
			}
		}
	}
	// The campaign must reach the paths the aged extent changes: GC moving
	// and erasing aged blocks, trims, scheduled jobs and retirements.
	if total.gcRuns == 0 || total.migrations == 0 || total.trims == 0 || total.jobs == 0 ||
		total.retired == 0 || total.forgotten == 0 {
		t.Fatalf("campaign too gentle: %+v", total)
	}
}

// FuzzAgedExtent runs the aged-versus-eager comparison of
// TestAgedExtentMatchesEagerFill over fuzzed fill fractions, devices and
// op sequences.
func FuzzAgedExtent(f *testing.F) {
	f.Add(byte(230), byte(0), []byte{0x08, 0x00, 0x10, 0x3c, 0x01, 0x20, 0x06, 0x00, 0x03, 0x07, 0xff, 0xff})
	f.Add(byte(250), byte(0x1f), []byte{0xf8, 0x00, 0x00, 0x42, 0x00, 0x05, 0xe6, 0x00, 0x11, 0x07, 0x40, 0x00})
	f.Add(byte(255), byte(0x02), []byte{0x38, 0x01, 0x00, 0x3d, 0x00, 0x07, 0x7a, 0x00, 0x40})
	f.Add(byte(128), byte(0x0d), []byte{0x04, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00})
	geometries := agedGeometries()
	f.Fuzz(func(t *testing.T, fraction, flags byte, ops []byte) {
		if len(ops) > 3*300 {
			ops = ops[:3*300]
		}
		c := agedCase{
			p:        geometries[int(flags)%len(geometries)],
			fraction: float64(fraction) / 255,
			preWear:  flags&0x04 != 0,
			sched:    flags&0x08 != 0,
		}
		if flags&0x10 != 0 {
			c.faults = uint64(flags)
		}
		runAgedOps(t, c, ops)
	})
}
