package ftl

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/flash"
)

// tinyParams: 2 channels × 2 chips × 1 plane × 8 blocks × 4 pages,
// 25% over-provisioning → 96 logical pages over 128 physical.
func tinyParams() flash.Params {
	p := flash.DefaultParams()
	p.Channels = 2
	p.ChipsPerChannel = 2
	p.PlanesPerChip = 1
	p.BlocksPerPlane = 8
	p.PagesPerBlock = 4
	p.OverProvision = 0.25
	p.GCThreshold = 0.25 // GC when a plane has < 2 free blocks
	return p
}

func mustNew(t *testing.T, p flash.Params) *FTL {
	t.Helper()
	f, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func seq(start, n int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = start + int64(i)
	}
	return out
}

func TestWriteStripedMapsAndCompletes(t *testing.T) {
	f := mustNew(t, tinyParams())
	bt, err := f.WriteStriped(0, seq(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	p := f.Params()
	// 4 pages over 4 distinct chips on 2 channels: two transfers pipeline
	// per channel, programs overlap.
	wantDurable := 2*p.PageTransferTime() + p.ProgramLatency
	if bt.Durable != wantDurable {
		t.Fatalf("striped batch durable = %d, want %d", bt.Durable, wantDurable)
	}
	if bt.Transferred != 2*p.PageTransferTime() {
		t.Fatalf("striped batch transferred = %d, want %d", bt.Transferred, 2*p.PageTransferTime())
	}
	for lpn := int64(0); lpn < 4; lpn++ {
		if !f.Mapped(lpn) {
			t.Fatalf("lpn %d unmapped after write", lpn)
		}
	}
	if f.Stats().HostPrograms != 4 {
		t.Fatalf("HostPrograms = %d", f.Stats().HostPrograms)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteStripedSpreadsAcrossChannels(t *testing.T) {
	f := mustNew(t, tinyParams())
	if _, err := f.WriteStriped(0, seq(0, 2)); err != nil {
		t.Fatal(err)
	}
	p := f.Params()
	// With channel-major striping the first two pages must sit on
	// different channels.
	ch0 := p.ChannelOfBlock(p.FirstBlockOfPlane(0))
	var chans []int
	arr := f.Array()
	for b := 0; b < p.Blocks(); b++ {
		if arr.ValidCount(b) > 0 {
			chans = append(chans, p.ChannelOfBlock(b))
		}
	}
	if len(chans) != 2 || chans[0] == chans[1] {
		t.Fatalf("striping failed: blocks on channels %v (first plane channel %d)", chans, ch0)
	}
}

func TestWriteBlockBoundStaysOnOnePlane(t *testing.T) {
	f := mustNew(t, tinyParams())
	if _, err := f.WriteBlockBound(0, seq(0, 4)); err != nil {
		t.Fatal(err)
	}
	p := f.Params()
	arr := f.Array()
	planes := map[int]bool{}
	for b := 0; b < p.Blocks(); b++ {
		if arr.ValidCount(b) > 0 {
			planes[p.PlaneOfBlock(b)] = true
		}
	}
	if len(planes) != 1 {
		t.Fatalf("block-bound batch hit %d planes, want 1", len(planes))
	}
}

func TestBlockBoundSlowerThanStriped(t *testing.T) {
	// The core timing claim behind Fig. 8: the same batch takes longer
	// block-bound (one channel) than striped (all channels).
	fs := mustNew(t, tinyParams())
	fb := mustNew(t, tinyParams())
	lpns := seq(0, 8)
	ds, err := fs.WriteStriped(0, lpns)
	if err != nil {
		t.Fatal(err)
	}
	db, err := fb.WriteBlockBound(0, lpns)
	if err != nil {
		t.Fatal(err)
	}
	if db.Durable <= ds.Durable || db.Transferred <= ds.Transferred {
		t.Fatalf("block-bound (%+v) not slower than striped (%+v)", db, ds)
	}
}

func TestOverwriteInvalidatesOldPage(t *testing.T) {
	f := mustNew(t, tinyParams())
	if _, err := f.WriteStriped(0, []int64{5}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteStriped(1, []int64{5}); err != nil {
		t.Fatal(err)
	}
	// Exactly one valid page may exist for lpn 5.
	arr, p := f.Array(), f.Params()
	valid := 0
	for b := 0; b < p.Blocks(); b++ {
		valid += arr.ValidCount(b)
	}
	if valid != 1 {
		t.Fatalf("valid pages = %d, want 1 after overwrite", valid)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReadMappedAndUnmapped(t *testing.T) {
	f := mustNew(t, tinyParams())
	if _, err := f.WriteStriped(0, []int64{7}); err != nil {
		t.Fatal(err)
	}
	now := int64(1_000_000_000)
	done, err := f.Read(now, []int64{7})
	if err != nil {
		t.Fatal(err)
	}
	p := f.Params()
	if done != now+p.ReadLatency+p.PageTransferTime() {
		t.Fatalf("mapped read done = %d", done)
	}
	// Unmapped read is still charged as flash work (pre-trace data).
	done2, err := f.Read(now*2, []int64{42})
	if err != nil {
		t.Fatal(err)
	}
	if done2 <= now*2 {
		t.Fatal("unmapped read took no time")
	}
	if f.Stats().HostReads != 2 {
		t.Fatalf("HostReads = %d, want 2", f.Stats().HostReads)
	}
}

func TestReadRejectsOutOfRangeLPN(t *testing.T) {
	f := mustNew(t, tinyParams())
	if _, err := f.Read(0, []int64{f.LogicalPages()}); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if _, err := f.WriteStriped(0, []int64{-1}); err == nil {
		t.Fatal("negative lpn write accepted")
	}
}

func TestGCReclaimsSpace(t *testing.T) {
	f := mustNew(t, tinyParams())
	// Repeatedly overwrite a small working set; without GC the 128
	// physical pages would be exhausted after 128 programs.
	for round := 0; round < 40; round++ {
		if _, err := f.WriteStriped(int64(round)*1_000_000, seq(0, 16)); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	st := f.Stats()
	if st.GCRuns == 0 || st.Erases == 0 {
		t.Fatalf("GC never ran: %+v", st)
	}
	if st.HostPrograms != 40*16 {
		t.Fatalf("HostPrograms = %d, want %d", st.HostPrograms, 40*16)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// All 16 lpns must still be mapped to valid pages after GC churn.
	for lpn := int64(0); lpn < 16; lpn++ {
		if !f.Mapped(lpn) {
			t.Fatalf("lpn %d lost its mapping during GC", lpn)
		}
	}
}

// placementWorkload drives a seeded random mix of striped and block-bound
// writes through the 8-block tinyParams device and returns the first
// error: a failed write or a broken invariant.
func placementWorkload(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	ftl, err := New(tinyParams())
	if err != nil {
		return err
	}
	logical := ftl.LogicalPages()
	now := int64(0)
	for i := 0; i < 300; i++ {
		now += int64(rng.Intn(1000))
		n := 1 + rng.Intn(6)
		lpns := make([]int64, n)
		base := rng.Int63n(logical)
		for j := range lpns {
			lpns[j] = (base + int64(j)) % logical
		}
		if rng.Intn(4) == 0 {
			if _, err := ftl.WriteBlockBound(now, lpns); err != nil {
				return err
			}
		} else {
			if _, err := ftl.WriteStriped(now, lpns); err != nil {
				return err
			}
		}
	}
	return ftl.CheckInvariants()
}

func TestGCPreservesDataPlacementConsistency(t *testing.T) {
	// Property: after arbitrary write workloads, every plane keeps at
	// least one free or active block, and invariants hold.
	f := func(seed int64) bool { return placementWorkload(seed) == nil }
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestGCCollectsFullFrontierBlocks replays the seeds that once ran every
// plane out of free blocks: each plane held a full frontier block (often
// its GC-stream block with no valid page left), which GC skipped as
// "active", so nothing could be reclaimed. A full frontier is a victim
// like any other full block.
func TestGCCollectsFullFrontierBlocks(t *testing.T) {
	for _, seed := range []int64{4800, 6233, 6690, 6878, 7052, 7147, 9820, 16545, 19055, 19188, 19598} {
		if err := placementWorkload(seed); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestGCDelaysSubsequentOpsOnChip(t *testing.T) {
	// GC work must occupy the chip timeline: after heavy churn, chip free
	// times exceed what host programs alone would produce.
	p := tinyParams()
	f := mustNew(t, p)
	for round := 0; round < 40; round++ {
		if _, err := f.WriteStriped(0, seq(0, 16)); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats()
	hostOnly := st.HostPrograms * (p.PageTransferTime() + p.ProgramLatency) / int64(p.Chips())
	var maxChip int64
	for c := 0; c < p.Chips(); c++ {
		if v := f.Timeline().ChipFree(c); v > maxChip {
			maxChip = v
		}
	}
	if st.GCRuns > 0 && maxChip <= hostOnly {
		t.Fatalf("GC cost invisible in timeline: maxChip=%d hostOnly=%d", maxChip, hostOnly)
	}
}

func TestOutOfSpaceErrorsGracefully(t *testing.T) {
	p := tinyParams()
	p.OverProvision = 0.0 // logical == physical: GC can never win
	f := mustNew(t, p)
	var sawErr bool
	for round := 0; round < 200 && !sawErr; round++ {
		if _, err := f.WriteStriped(0, seq(0, f.LogicalPages())); err != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Skip("device absorbed workload without exhaustion (GC found invalid pages)")
	}
}

func TestStripeOrderCoversAllPlanesOnce(t *testing.T) {
	for _, geom := range []struct{ ch, chips, planes int }{
		{2, 2, 1}, {8, 2, 1}, {4, 2, 2}, {1, 1, 1}, {3, 3, 2},
	} {
		p := tinyParams()
		p.Channels, p.ChipsPerChannel, p.PlanesPerChip = geom.ch, geom.chips, geom.planes
		f := mustNew(t, p)
		seen := map[int32]int{}
		for _, pl := range f.stripeOrder {
			seen[pl]++
		}
		if len(seen) != p.Planes() {
			t.Fatalf("geom %+v: stripe order covers %d planes, want %d", geom, len(seen), p.Planes())
		}
		for pl, n := range seen {
			if n != 1 {
				t.Fatalf("geom %+v: plane %d visited %d times", geom, pl, n)
			}
		}
		// First Channels entries must be on distinct channels.
		chans := map[int]bool{}
		for i := 0; i < p.Channels; i++ {
			chans[p.ChannelOfBlock(p.FirstBlockOfPlane(int(f.stripeOrder[i])))] = true
		}
		if len(chans) != p.Channels {
			t.Fatalf("geom %+v: first %d stripe targets span %d channels", geom, p.Channels, len(chans))
		}
	}
}
