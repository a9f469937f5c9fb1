package oracle

import "testing"

// tinyOracleFTL mirrors the differential geometry: 4 planes × 8 blocks ×
// 4 pages = 128 physical, 96 logical, GC floor 2.
func tinyOracleFTL() *FTL { return NewFTL(4, 8, 4, 96, 2) }

// TestOracleFTLGCPreservesContents hammers overwrites until GC has run
// many times, then checks the content-stamp invariant: every live page
// still resolves to its last host write.
func TestOracleFTLGCPreservesContents(t *testing.T) {
	f := tinyOracleFTL()
	stamp := uint64(0)
	write := func(lpns ...int64) {
		t.Helper()
		stamps := make([]uint64, len(lpns))
		for i := range stamps {
			stamp++
			stamps[i] = stamp
		}
		if err := f.WriteStriped(lpns, stamps); err != nil {
			t.Fatalf("write %v: %v", lpns, err)
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("after write %v: %v", lpns, err)
		}
	}
	// Fill the logical space, then overwrite a hot subset far past the
	// physical capacity so garbage collection must migrate cold pages.
	for lpn := int64(0); lpn < 96; lpn++ {
		write(lpn)
	}
	for round := 0; round < 40; round++ {
		for lpn := int64(0); lpn < 16; lpn++ {
			write(lpn)
		}
	}
	for lpn := int64(0); lpn < 96; lpn++ {
		if !f.Mapped(lpn) {
			t.Fatalf("lpn %d lost after GC churn", lpn)
		}
	}
}

// TestOracleFTLBlockBoundAndTrim covers the block-bound write path and
// trim semantics.
func TestOracleFTLBlockBoundAndTrim(t *testing.T) {
	f := tinyOracleFTL()
	lpns := []int64{8, 9, 10, 11}
	if err := f.WriteBlockBound(lpns, []uint64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	for _, lpn := range lpns {
		if !f.Mapped(lpn) {
			t.Fatalf("lpn %d unmapped after block-bound write", lpn)
		}
	}
	f.Trim(lpns[:2])
	f.Trim(lpns[:2]) // trimming twice is a no-op
	if f.Mapped(8) || f.Mapped(9) || !f.Mapped(10) {
		t.Fatalf("trim state wrong: %v %v %v", f.Mapped(8), f.Mapped(9), f.Mapped(10))
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOracleFTLRejectsOutOfRange pins the error path.
func TestOracleFTLRejectsOutOfRange(t *testing.T) {
	f := tinyOracleFTL()
	if err := f.WriteStriped([]int64{96}, []uint64{1}); err == nil {
		t.Fatal("write past logical space succeeded")
	}
	if err := f.WriteStriped([]int64{-1}, []uint64{1}); err == nil {
		t.Fatal("negative lpn write succeeded")
	}
}

// TestOracleFTLCollectsFullActiveBlock pins the fast FTL's frontier rule
// in the oracle: a full active block is a GC victim like any other full
// block, and collecting it clears the active slot before the erase, so
// the erased block is opened again only from the free list.
func TestOracleFTLCollectsFullActiveBlock(t *testing.T) {
	f := NewFTL(1, 3, 2, 4, 2)
	if err := f.WriteStriped([]int64{0, 1}, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Trim([]int64{0, 1}) // block 0: the full active block, nothing valid
	if !f.gcOnce(0) {
		t.Fatal("GC skipped the full active block")
	}
	if f.active[0] == 0 {
		t.Fatal("collected block 0 is still the active block")
	}
	for i, lpn := range []int64{2, 3, 2, 3, 0} {
		if err := f.WriteStriped([]int64{lpn}, []uint64{uint64(10 + i)}); err != nil {
			t.Fatalf("write %d: %v", lpn, err)
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("after write %d: %v", lpn, err)
		}
	}
}
