package flash

import (
	"testing"
	"testing/quick"
)

// tinyParams is a small geometry used across the flash tests: 2 channels ×
// 2 chips × 1 plane × 4 blocks × 4 pages.
func tinyParams() Params {
	p := DefaultParams()
	p.Channels = 2
	p.ChipsPerChannel = 2
	p.PlanesPerChip = 1
	p.BlocksPerPlane = 4
	p.PagesPerBlock = 4
	return p
}

func TestDefaultParamsMatchTable1(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Channels != 8 || p.ChipsPerChannel != 2 || p.PagesPerBlock != 64 || p.PageSize != 4096 {
		t.Fatalf("geometry does not match Table 1: %+v", p)
	}
	if p.ReadLatency != 75_000 || p.ProgramLatency != 2_000_000 || p.EraseLatency != 15_000_000 {
		t.Fatalf("latencies do not match Table 1: %+v", p)
	}
	if p.TransferPerByte != 10 || p.GCThreshold != 0.10 {
		t.Fatalf("transfer/GC do not match Table 1: %+v", p)
	}
	if got := p.PhysicalBytes(); got != 128<<30 {
		t.Fatalf("physical capacity = %d bytes, want 128 GiB", got)
	}
	if p.PageTransferTime() != 40_960 {
		t.Fatalf("page transfer = %d ns, want 40960", p.PageTransferTime())
	}
}

func TestParamsValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.Channels = 0 },
		func(p *Params) { p.ChipsPerChannel = 0 },
		func(p *Params) { p.PlanesPerChip = 0 },
		func(p *Params) { p.BlocksPerPlane = 1 },
		func(p *Params) { p.PagesPerBlock = 0 },
		func(p *Params) { p.PageSize = 0 },
		func(p *Params) { p.ReadLatency = -1 },
		func(p *Params) { p.GCThreshold = 1.0 },
		func(p *Params) { p.OverProvision = -0.1 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

func TestScaledParamsKeepsRatios(t *testing.T) {
	p := ScaledParams(1024)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	d := DefaultParams()
	if p.Channels != d.Channels || p.PagesPerBlock != d.PagesPerBlock {
		t.Fatal("scaling changed parallelism or block shape")
	}
	if p.BlocksPerPlane != d.BlocksPerPlane/1024 {
		t.Fatalf("BlocksPerPlane = %d", p.BlocksPerPlane)
	}
	// Extreme divisor clamps to a usable floor rather than zero.
	p = ScaledParams(1 << 30)
	if p.BlocksPerPlane < 8 {
		t.Fatalf("clamp failed: %d", p.BlocksPerPlane)
	}
}

func TestAddressingRoundTrip(t *testing.T) {
	p := tinyParams()
	for block := 0; block < p.Blocks(); block++ {
		for page := 0; page < p.PagesPerBlock; page++ {
			ppn := p.PPN(block, page)
			if p.BlockOfPPN(ppn) != block || int(ppn%int64(p.PagesPerBlock)) != page {
				t.Fatalf("round trip failed for block %d page %d", block, page)
			}
		}
	}
}

func TestAddressingChannelMajorLayout(t *testing.T) {
	p := tinyParams() // 2 ch × 2 chips × 1 plane × 4 blocks
	// Planes 0,1 belong to channel 0 (chips 0,1); planes 2,3 to channel 1.
	if p.ChannelOfBlock(p.FirstBlockOfPlane(0)) != 0 ||
		p.ChannelOfBlock(p.FirstBlockOfPlane(1)) != 0 ||
		p.ChannelOfBlock(p.FirstBlockOfPlane(2)) != 1 ||
		p.ChannelOfBlock(p.FirstBlockOfPlane(3)) != 1 {
		t.Fatal("channel-major plane layout broken")
	}
	if p.ChipOfBlock(p.FirstBlockOfPlane(1)) != 1 || p.ChipOfBlock(p.FirstBlockOfPlane(3)) != 3 {
		t.Fatal("chip indexing broken")
	}
}

func TestProgramSequentialWithinBlock(t *testing.T) {
	a, err := NewArray(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	var ppns []int64
	for i := 0; i < 4; i++ {
		ppn, err := a.Program(0)
		if err != nil {
			t.Fatal(err)
		}
		ppns = append(ppns, ppn)
	}
	for i, ppn := range ppns {
		if int(ppn) != i {
			t.Fatalf("program order %v not sequential", ppns)
		}
	}
	if _, err := a.Program(0); err == nil {
		t.Fatal("programming a full block succeeded")
	}
	if a.Programs() != 4 {
		t.Fatalf("Programs = %d, want 4", a.Programs())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidateAndErase(t *testing.T) {
	a, _ := NewArray(tinyParams())
	ppn, _ := a.Program(1)
	if a.ValidCount(1) != 1 {
		t.Fatal("valid count after program wrong")
	}
	// Erase with a valid page must be refused.
	if err := a.Erase(1); err == nil {
		t.Fatal("erase of block with valid data succeeded")
	}
	if err := a.Invalidate(ppn); err != nil {
		t.Fatal(err)
	}
	// Double invalidate is an error.
	if err := a.Invalidate(ppn); err == nil {
		t.Fatal("double invalidate succeeded")
	}
	if err := a.Erase(1); err != nil {
		t.Fatal(err)
	}
	if a.EraseCount(1) != 1 || a.Erases() != 1 {
		t.Fatal("erase counters wrong")
	}
	// After erase the block is programmable again from page 0.
	ppn2, err := a.Program(1)
	if err != nil {
		t.Fatal(err)
	}
	if p := a.Params(); ppn2 != p.PPN(1, 0) {
		t.Fatal("erased block did not restart at page 0")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReadStateChecks(t *testing.T) {
	a, _ := NewArray(tinyParams())
	if err := a.Read(0); err == nil {
		t.Fatal("read of unprogrammed page succeeded")
	}
	ppn, _ := a.Program(0)
	if err := a.Read(ppn); err != nil {
		t.Fatal(err)
	}
	if a.Reads() != 1 {
		t.Fatalf("Reads = %d, want 1", a.Reads())
	}
	// Reads of invalid (stale) pages are allowed: GC may relocate them? No —
	// but a read of an invalidated page is still physically possible.
	a.Invalidate(ppn)
	if err := a.Read(ppn); err != nil {
		t.Fatal("read of stale page should be physically possible")
	}
}

func TestTimelineProgramOccupancy(t *testing.T) {
	p := tinyParams()
	tl := NewTimeline(p)
	xfer, done := tl.Program(0, 0, 0)
	wantDone := p.PageTransferTime() + p.ProgramLatency
	if done != wantDone {
		t.Fatalf("program done = %d, want %d", done, wantDone)
	}
	if xfer != p.PageTransferTime() {
		t.Fatalf("transfer end = %d, want %d", xfer, p.PageTransferTime())
	}
	// Channel frees after transfer, chip after program.
	if tl.ChannelFree(0) != p.PageTransferTime() {
		t.Fatalf("channel free = %d, want %d", tl.ChannelFree(0), p.PageTransferTime())
	}
	if tl.ChipFree(0) != wantDone {
		t.Fatalf("chip free = %d", tl.ChipFree(0))
	}
}

// Two programs to different chips on the same channel pipeline on the bus:
// the second transfer waits only for the first transfer, not the program.
func TestTimelineChannelPipelining(t *testing.T) {
	p := tinyParams()
	tl := NewTimeline(p)
	_, d0 := tl.Program(0, 0, 0)
	_, d1 := tl.Program(0, 0, 1) // same channel, different chip
	want1 := 2*p.PageTransferTime() + p.ProgramLatency
	if d1 != want1 {
		t.Fatalf("second program done = %d, want %d", d1, want1)
	}
	if d1-d0 != p.PageTransferTime() {
		t.Fatalf("pipelining gap = %d, want one transfer", d1-d0)
	}
}

// Two programs to the same chip: the second transfer overlaps the first
// program (cache-program mode), but the program phases serialize on the
// die.
func TestTimelineChipSerialization(t *testing.T) {
	p := tinyParams()
	tl := NewTimeline(p)
	tl.Program(0, 0, 0)
	xfer1, d1 := tl.Program(0, 0, 0)
	if xfer1 != 2*p.PageTransferTime() {
		t.Fatalf("second transfer end = %d, want %d (channel-gated only)", xfer1, 2*p.PageTransferTime())
	}
	want := p.PageTransferTime() + 2*p.ProgramLatency
	if d1 != want {
		t.Fatalf("serialized program done = %d, want %d", d1, want)
	}
}

// Programs striped across distinct channels proceed fully in parallel —
// the effect batch eviction exploits (paper §4.2.4).
func TestTimelineChannelParallelism(t *testing.T) {
	p := tinyParams()
	tl := NewTimeline(p)
	_, d0 := tl.Program(0, 0, 0)
	_, d1 := tl.Program(0, 1, 2) // chip 2 is on channel 1
	if d0 != d1 {
		t.Fatalf("parallel programs differ: %d vs %d", d0, d1)
	}
}

func TestTimelineRead(t *testing.T) {
	p := tinyParams()
	tl := NewTimeline(p)
	done := tl.Read(0, 0, 0)
	want := p.ReadLatency + p.PageTransferTime()
	if done != want {
		t.Fatalf("read done = %d, want %d", done, want)
	}
}

func TestTimelineEraseAndCopyback(t *testing.T) {
	p := tinyParams()
	tl := NewTimeline(p)
	if done := tl.Erase(100, 0); done != 100+p.EraseLatency {
		t.Fatalf("erase done = %d", done)
	}
	if tl.ChannelFree(0) != 0 {
		t.Fatal("erase touched the channel")
	}
	done := tl.Copyback(0, 1)
	if done != p.ReadLatency+p.ProgramLatency {
		t.Fatalf("copyback done = %d", done)
	}
}

// Property: completion times from a random schedule are always >= issue time
// and resource free times never decrease.
func TestTimelineMonotoneProperty(t *testing.T) {
	p := tinyParams()
	f := func(ops []uint16) bool {
		tl := NewTimeline(p)
		now := int64(0)
		prevChan := make([]int64, p.Channels)
		prevChip := make([]int64, p.Chips())
		for _, op := range ops {
			now += int64(op % 999)
			ch := int(op) % p.Channels
			chip := int(op) % p.Chips()
			var done int64
			switch op % 4 {
			case 0:
				_, done = tl.Program(now, ch, chip)
			case 1:
				done = tl.Read(now, ch, chip)
			case 2:
				done = tl.Erase(now, chip)
			case 3:
				done = tl.Copyback(now, chip)
			}
			if done < now {
				return false
			}
			for c := range prevChan {
				if tl.ChannelFree(c) < prevChan[c] {
					return false
				}
				prevChan[c] = tl.ChannelFree(c)
			}
			for c := range prevChip {
				if tl.ChipFree(c) < prevChip[c] {
					return false
				}
				prevChip[c] = tl.ChipFree(c)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
