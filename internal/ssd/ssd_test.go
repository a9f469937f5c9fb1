package ssd

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/flash"
	"repro/internal/ftl"
)

func tinyParams() Params {
	p := DefaultParams()
	p.Flash.Channels = 2
	p.Flash.ChipsPerChannel = 2
	p.Flash.BlocksPerPlane = 16
	p.Flash.PagesPerBlock = 8
	p.Flash.OverProvision = 0.25
	p.Precondition = 0
	return p
}

func TestDefaultParamsSane(t *testing.T) {
	p := DefaultParams()
	if p.Flash.Channels != 8 || p.DRAMAccess <= 0 {
		t.Fatalf("defaults wrong: %+v", p)
	}
	if p.Flash.PhysicalBytes() != 128<<30 {
		t.Fatal("default device is not 128 GiB")
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	p := tinyParams()
	p.DRAMAccess = -1
	if _, err := New(p); err == nil {
		t.Fatal("negative DRAM access accepted")
	}
	p = tinyParams()
	p.Flash.Channels = 0
	if _, err := New(p); err == nil {
		t.Fatal("invalid flash accepted")
	}
}

// TestNewRejectsUnaddressableGeometry builds a device of 2^31 physical
// pages, one more than int32 translation entries address: the FTL and the
// device both refuse it by naming the limit, before allocating its tables.
func TestNewRejectsUnaddressableGeometry(t *testing.T) {
	p := DefaultParams()
	p.Flash.BlocksPerPlane = 1 << 31 / (p.Flash.Planes() * p.Flash.PagesPerBlock)
	if n := p.Flash.PhysicalPages(); n != 1<<31 {
		t.Fatalf("geometry holds %d pages, want 2^31", n)
	}
	for name, build := range map[string]func() error{
		"ftl.New": func() error { _, err := ftl.New(p.Flash); return err },
		"ssd.New": func() error { _, err := New(p); return err },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := build()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "2147483647") {
			t.Fatalf("%s: error %v, want one naming the 2147483647-page limit", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("%s: allocated %d bytes before refusing", name, alloc)
		}
	}
}

func TestCacheAccessTiming(t *testing.T) {
	d, err := New(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if got := d.CacheAccess(100, 3); got != 100+3*d.Params().DRAMAccess {
		t.Fatalf("CacheAccess = %d", got)
	}
	if d.CacheAccess(100, 0) != 100 {
		t.Fatal("zero-page cache access should be free")
	}
}

func TestFlushAndReadRoundTrip(t *testing.T) {
	d, err := New(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	lpns := []int64{0, 1, 2, 3}
	bt, err := d.FlushStriped(0, lpns)
	if err != nil {
		t.Fatal(err)
	}
	if bt.Transferred <= 0 || bt.Durable <= bt.Transferred {
		t.Fatalf("flush timing wrong: %+v", bt)
	}
	rdone, err := d.ReadPages(bt.Durable, lpns)
	if err != nil {
		t.Fatal(err)
	}
	if rdone <= bt.Durable {
		t.Fatal("read took no time")
	}
	c := d.Counters()
	if c.FlashWrites != 4 || c.FlashReads != 4 {
		t.Fatalf("counters wrong: %+v", c)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBlockBoundSlowerThanStriped(t *testing.T) {
	ds, _ := New(tinyParams())
	db, _ := New(tinyParams())
	lpns := []int64{0, 1, 2, 3, 4, 5, 6, 7}
	sDone, err := ds.FlushStriped(0, lpns)
	if err != nil {
		t.Fatal(err)
	}
	bDone, err := db.FlushBlockBound(0, lpns)
	if err != nil {
		t.Fatal(err)
	}
	if bDone.Transferred <= sDone.Transferred {
		t.Fatalf("block-bound (%+v) not slower than striped (%+v)", bDone, sDone)
	}
}

func TestPreconditionAgesDevice(t *testing.T) {
	p := tinyParams()
	p.Precondition = 0.5
	d, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	// Preconditioning must not count as host activity.
	if c := d.Counters(); c.FlashWrites != 0 {
		t.Fatalf("precondition counted as host writes: %+v", c)
	}
	// Overwriting a preconditioned page must invalidate the old copy.
	if _, err := d.FlushStriped(0, []int64{0}); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAmplification(t *testing.T) {
	c := Counters{FlashWrites: 100, GCMigrations: 25}
	if c.WriteAmplification() != 1.25 {
		t.Fatalf("WA = %v, want 1.25", c.WriteAmplification())
	}
	if (Counters{}).WriteAmplification() != 0 {
		t.Fatal("WA of idle device should be 0")
	}
	if c.TotalPrograms() != 125 {
		t.Fatal("TotalPrograms wrong")
	}
}

func TestGCUnderSustainedOverwrite(t *testing.T) {
	p := tinyParams()
	p.Precondition = 0.8
	d, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	lpns := make([]int64, 16)
	for i := range lpns {
		lpns[i] = int64(i)
	}
	now := int64(0)
	for round := 0; round < 60; round++ {
		bt, err := d.FlushStriped(now, lpns)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		now = bt.Durable
	}
	c := d.Counters()
	if c.GCRuns == 0 {
		t.Fatalf("GC never ran on a preconditioned device: %+v", c)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestScaledParams(t *testing.T) {
	p := ScaledParams(512)
	if p.Flash.BlocksPerPlane != flash.DefaultParams().BlocksPerPlane/512 {
		t.Fatalf("scaling wrong: %d", p.Flash.BlocksPerPlane)
	}
	if p.DRAMAccess != DefaultParams().DRAMAccess {
		t.Fatal("scaling changed DRAM timing")
	}
}

func TestBackPressureAdmitAt(t *testing.T) {
	p := ScaledParams(64)
	p.Precondition = 0
	d, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	// Unconfigured: AdmitAt is the identity and counts nothing.
	if got := d.AdmitAt(123); got != 123 {
		t.Fatalf("AdmitAt without back-pressure = %d, want 123", got)
	}
	d.SetBackPressure(2)
	if d.BackPressureDepth() != 2 {
		t.Fatalf("BackPressureDepth = %d, want 2", d.BackPressureDepth())
	}
	// Two outstanding flush batches fill the ring; the next admission
	// waits for the older one's durable time.
	bt1, err := d.FlushStriped(0, []int64{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.FlushStriped(0, []int64{4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	if got := d.AdmitAt(0); got != bt1.Durable {
		t.Fatalf("AdmitAt(0) = %d, want first batch durable %d", got, bt1.Durable)
	}
	stalls, stallNs := d.BackPressureStalls()
	if stalls != 1 || stallNs != bt1.Durable {
		t.Fatalf("stalls = %d/%dns, want 1/%d", stalls, stallNs, bt1.Durable)
	}
	// At or past the gate: no stall.
	if got := d.AdmitAt(bt1.Durable); got != bt1.Durable {
		t.Fatalf("AdmitAt(gate) = %d, want %d", got, bt1.Durable)
	}
	if stalls, _ := d.BackPressureStalls(); stalls != 1 {
		t.Fatalf("stall count moved to %d on a non-stalling admission", stalls)
	}
	// Disabling resets the plane.
	d.SetBackPressure(0)
	if d.BackPressureDepth() != 0 {
		t.Fatal("SetBackPressure(0) left a ring")
	}
	if got := d.AdmitAt(1); got != 1 {
		t.Fatalf("AdmitAt after disable = %d, want 1", got)
	}
}
