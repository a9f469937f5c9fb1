package ftl

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/flash"
)

// preconditionPerPage is the fill Precondition replaced, kept as its
// reference: every page goes through the host-write allocator, exactly as
// a striped host write would place it.
func preconditionPerPage(f *FTL, fraction float64) error {
	n := int64(float64(f.LogicalPages()) * fraction)
	for lpn := int64(0); lpn < n; lpn++ {
		plane := int(f.stripeOrder[f.stripeNext])
		f.stripeNext = (f.stripeNext + 1) % len(f.stripeOrder)
		ppn, _, _, err := f.allocPage(0, plane, true)
		if err != nil {
			return fmt.Errorf("ftl: precondition at lpn %d: %w", lpn, err)
		}
		if old := f.mapping[lpn]; old != unmapped {
			oldPPN := target(old)
			if err := f.arr.Invalidate(oldPPN); err != nil {
				return err
			}
			f.reverse[oldPPN] = unmapped
		}
		f.mapping[lpn] = entry(ppn)
		f.reverse[ppn] = entry(lpn)
	}
	return nil
}

// fillGeometries are the devices the block-run fill is diffed on: two
// scaled paper devices, a tiny two-planes-per-chip device whose blocks
// hold a number of pages that divides nothing else, and the same device
// without over-provisioning, where a full fill programs every page.
func fillGeometries() map[string]flash.Params {
	tiny := flash.DefaultParams()
	tiny.Channels = 2
	tiny.ChipsPerChannel = 2
	tiny.PlanesPerChip = 2
	tiny.BlocksPerPlane = 8
	tiny.PagesPerBlock = 6
	tiny.OverProvision = 0.25
	tiny.GCThreshold = 0.25
	noOP := tiny
	noOP.OverProvision = 0
	return map[string]flash.Params{
		"scaled64":  flash.ScaledParams(64),
		"scaled256": flash.ScaledParams(256),
		"tiny":      tiny,
		"op0":       noOP,
	}
}

// TestPreconditionMatchesPerPageFill diffs the whole FTL the block-run fill
// leaves against the per-page reference: every LPN's PPN and every valid
// page's owner by resolution, and every other field (free lists, wear
// index, frontiers, stripe cursor, every array table and counter) by
// reflect.DeepEqual.
func TestPreconditionMatchesPerPageFill(t *testing.T) {
	for name, p := range fillGeometries() {
		onePage := 1.5 / float64(p.LogicalPages())
		for _, fraction := range []float64{0, onePage, 0.5, 0.9, 0.98, 1} {
			for _, wearLevel := range []bool{true, false} {
				for _, preWear := range []bool{false, true} {
					label := fmt.Sprintf("%s/fraction=%g/wear=%v/prewear=%v", name, fraction, wearLevel, preWear)
					build := func() *FTL {
						f, err := NewConfig(p, wearLevel)
						if err != nil {
							t.Fatal(err)
						}
						if preWear {
							f.PreWear(11, 30, 7)
						}
						return f
					}
					got, want := build(), build()
					if err := got.Precondition(fraction); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if err := preconditionPerPage(want, fraction); err != nil {
						t.Fatalf("%s: reference: %v", label, err)
					}
					if err := got.CheckInvariants(); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					n := int64(float64(p.LogicalPages()) * fraction)
					if fraction == onePage && n != 1 {
						t.Fatalf("%s: fills %d pages, want 1", label, n)
					}
					if got.arr.Programs() != n {
						t.Fatalf("%s: %d pages programmed, want %d", label, got.arr.Programs(), n)
					}
					if d := diffFTL(got, want); d != "" {
						t.Fatalf("%s: block-run fill differs from the per-page fill: %s", label, d)
					}
				}
			}
		}
	}
}

// TestFreshTablesStayZero pins the translation encoding: the zero entry is
// unmapped, so a fresh FTL's tables hold nothing but zeros, and a fill
// writes no entry at all: its pages translate through the aged extent.
func TestFreshTablesStayZero(t *testing.T) {
	f := mustNew(t, fillGeometries()["scaled256"])
	zero := func(when string) {
		t.Helper()
		for lpn, e := range f.mapping {
			if e != 0 {
				t.Fatalf("%s: mapping[%d] = %d", when, lpn, e)
			}
		}
		for ppn, e := range f.reverse {
			if e != 0 {
				t.Fatalf("%s: reverse[%d] = %d", when, ppn, e)
			}
		}
	}
	zero("fresh")
	for lpn := int64(0); lpn < f.LogicalPages(); lpn++ {
		if f.Mapped(lpn) {
			t.Fatalf("fresh: lpn %d mapped", lpn)
		}
	}
	if err := f.Precondition(0.9); err != nil {
		t.Fatal(err)
	}
	zero("after Precondition(0.9)")
	n := int64(float64(f.LogicalPages()) * 0.9)
	for lpn := int64(0); lpn < f.LogicalPages(); lpn++ {
		if filled := lpn < n; f.Mapped(lpn) != filled {
			t.Fatalf("after a fill of %d pages: Mapped(%d) = %v", n, lpn, !filled)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPreconditionFromStripeCursor starts the fill at every stripe
// position: a striped write that fails its range check advances the
// cursor without programming anything, and the fill must start there.
func TestPreconditionFromStripeCursor(t *testing.T) {
	p := fillGeometries()["tiny"]
	for start := 0; start < p.Planes(); start++ {
		for _, fraction := range []float64{0.3, 1} {
			got, want := mustNew(t, p), mustNew(t, p)
			got.stripeNext, want.stripeNext = start, start
			if err := got.Precondition(fraction); err != nil {
				t.Fatal(err)
			}
			if err := preconditionPerPage(want, fraction); err != nil {
				t.Fatal(err)
			}
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("start %d, fraction %g: %v", start, fraction, err)
			}
			if d := diffFTL(got, want); d != "" {
				t.Fatalf("start %d, fraction %g: block-run fill differs from the per-page fill: %s", start, fraction, d)
			}
		}
	}
}

// TestPreconditionRequiresFreshDevice: a device with programmed pages, or
// with a fault injector whose programs may fail page by page, is refused.
func TestPreconditionRequiresFreshDevice(t *testing.T) {
	f := mustNew(t, tinyParams())
	if _, err := f.WriteStriped(0, []int64{3}); err != nil {
		t.Fatal(err)
	}
	if err := f.Precondition(0.5); err == nil {
		t.Fatal("precondition of a device with a programmed page succeeded")
	}

	f = mustNew(t, tinyParams())
	if err := f.Precondition(0.5); err != nil {
		t.Fatal(err)
	}
	if err := f.Precondition(0.5); err == nil {
		t.Fatal("second precondition succeeded")
	}

	f = mustNew(t, tinyParams())
	inj, err := fault.NewInjector(fault.Config{ProgramFailProb: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f.EnableFaults(inj)
	if err := f.Precondition(0.5); err == nil {
		t.Fatal("precondition with a fault injector attached succeeded")
	}

	if err := mustNew(t, tinyParams()).Precondition(1.5); err == nil {
		t.Fatal("fraction 1.5 accepted")
	}
}
