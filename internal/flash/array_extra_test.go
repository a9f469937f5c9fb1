package flash

import (
	"reflect"
	"testing"

	"repro/internal/fault"
)

func TestArrayStateAccessors(t *testing.T) {
	a, err := NewArray(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if a.State(0) != PageFree {
		t.Fatal("fresh page not free")
	}
	if a.BlockFull(0) || a.FreePagesInBlock(0) != 4 {
		t.Fatal("fresh block accounting wrong")
	}
	for i := 0; i < 4; i++ {
		if _, err := a.Program(0); err != nil {
			t.Fatal(err)
		}
	}
	if !a.BlockFull(0) || a.FreePagesInBlock(0) != 0 {
		t.Fatal("full block accounting wrong")
	}
	if a.State(0) != PageValid {
		t.Fatal("programmed page not valid")
	}
	if err := a.Invalidate(0); err != nil {
		t.Fatal(err)
	}
	if a.State(0) != PageInvalid {
		t.Fatal("invalidated page state wrong")
	}
}

// TestProgramRunMatchesPrograms: a run of n pages leaves the array exactly
// as n Program calls do, from a fresh block and from a partly programmed
// one, and an impossible run is refused without touching the array.
func TestProgramRunMatchesPrograms(t *testing.T) {
	p := tinyParams()
	p.PagesPerBlock = 6
	for _, c := range []struct{ before, n int }{{0, 1}, {0, 6}, {2, 3}, {5, 1}} {
		run, _ := NewArray(p)
		ref, _ := NewArray(p)
		for i := 0; i < c.before; i++ {
			if _, err := run.Program(1); err != nil {
				t.Fatal(err)
			}
			if _, err := ref.Program(1); err != nil {
				t.Fatal(err)
			}
		}
		first, err := run.ProgramRun(1, c.n)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.n; i++ {
			ppn, err := ref.Program(1)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 && ppn != first {
				t.Fatalf("run starts at ppn %d, Program at %d", first, ppn)
			}
		}
		if !reflect.DeepEqual(run, ref) {
			t.Fatalf("%d pages after %d: run differs from Program calls", c.n, c.before)
		}
		if err := run.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}

	a, _ := NewArray(p)
	fresh, _ := NewArray(p)
	for _, n := range []int{0, -1, 7} {
		if _, err := a.ProgramRun(0, n); err == nil {
			t.Fatalf("run of %d pages accepted", n)
		}
	}
	a.markBad(2)
	fresh.markBad(2)
	if _, err := a.ProgramRun(2, 1); err == nil {
		t.Fatal("run on a retired block accepted")
	}
	inj, err := fault.NewInjector(fault.Config{ProgramFailProb: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a.SetInjector(inj)
	if _, err := a.ProgramRun(0, 1); err == nil {
		t.Fatal("run with a fault injector attached accepted")
	}
	a.SetInjector(nil)
	if !reflect.DeepEqual(a, fresh) {
		t.Fatal("a refused run changed the array")
	}
}

func TestNewArrayRejectsInvalidParams(t *testing.T) {
	p := tinyParams()
	p.Channels = 0
	if _, err := NewArray(p); err == nil {
		t.Fatal("invalid geometry accepted")
	}
}

func TestParamsLogicalPages(t *testing.T) {
	p := tinyParams()
	p.OverProvision = 0.25
	if got := p.LogicalPages(); got != p.PhysicalPages()*3/4 {
		t.Fatalf("LogicalPages = %d, want 3/4 of %d", got, p.PhysicalPages())
	}
}

func TestWearStatsInPackage(t *testing.T) {
	a, _ := NewArray(tinyParams())
	for i := 0; i < 4; i++ {
		ppn, _ := a.Program(0)
		a.Invalidate(ppn)
	}
	if err := a.Erase(0); err != nil {
		t.Fatal(err)
	}
	w := a.WearStats()
	if w.TotalErases != 1 || w.MaxErase != 1 || w.MinErase != 0 {
		t.Fatalf("wear stats: %+v", w)
	}
	if w.MeanErase <= 0 || w.StdDev <= 0 {
		t.Fatalf("wear distribution: %+v", w)
	}
}
