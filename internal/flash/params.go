// Package flash simulates the NAND flash array inside an SSD: its geometry
// (channels, chips, planes, blocks, pages), the physical state machine of
// every page (free → valid → invalid → erased), and the timing of
// operations on the shared channel buses and chip dies.
//
// The model follows SSDsim's structure, the simulator the paper modified:
// page programs occupy the channel for the data transfer and the chip for
// transfer plus program time; reads occupy the chip for the cell read and
// then the channel for the transfer out; erases occupy only the chip. The
// parameters in DefaultParams mirror Table 1 of the paper.
package flash

import "fmt"

// Params describes the flash array geometry and timing.
type Params struct {
	// Geometry.
	Channels        int // independent channel buses
	ChipsPerChannel int // chips (dies) sharing one channel
	PlanesPerChip   int // planes per chip
	BlocksPerPlane  int // erase blocks per plane
	PagesPerBlock   int // program pages per block
	PageSize        int // bytes per page

	// Timing, in nanoseconds.
	ReadLatency     int64 // cell-to-register read
	ProgramLatency  int64 // register-to-cell program
	EraseLatency    int64 // block erase
	TransferPerByte int64 // channel transfer per byte

	// GCThreshold triggers garbage collection on a plane when its fraction
	// of free blocks drops below this value (Table 1: 10%).
	GCThreshold float64
	// OverProvision is the fraction of physical capacity hidden from the
	// host so GC always has headroom.
	OverProvision float64
}

// DefaultParams returns the paper's Table 1 configuration: a 128 GB device
// with 8 channels × 2 chips, 64 pages per 4 KB-page block, 0.075 ms reads,
// 2 ms programs, 15 ms erases, 10 ns/B transfers and a 10% GC threshold.
func DefaultParams() Params {
	return Params{
		Channels:        8,
		ChipsPerChannel: 2,
		PlanesPerChip:   1,
		BlocksPerPlane:  32768, // 8 ch × 2 chips × 32768 blocks × 64 pages × 4 KB = 128 GiB
		PagesPerBlock:   64,
		PageSize:        4096,
		ReadLatency:     75_000,     // 0.075 ms
		ProgramLatency:  2_000_000,  // 2 ms
		EraseLatency:    15_000_000, // 15 ms
		TransferPerByte: 10,
		GCThreshold:     0.10,
		OverProvision:   0.125,
	}
}

// ScaledParams returns DefaultParams with the per-plane block count reduced
// by the given factor, preserving every ratio that matters (channel/chip
// parallelism, pages per block, latencies, GC threshold). The experiment
// harness uses this so paper-shaped runs complete in seconds.
func ScaledParams(blockDivisor int) Params {
	p := DefaultParams()
	if blockDivisor > 1 {
		p.BlocksPerPlane /= blockDivisor
		if p.BlocksPerPlane < 8 {
			p.BlocksPerPlane = 8
		}
	}
	return p
}

// Validate reports whether the parameters describe a usable device.
func (p *Params) Validate() error {
	switch {
	case p.Channels < 1:
		return fmt.Errorf("flash: Channels = %d, need >= 1", p.Channels)
	case p.ChipsPerChannel < 1:
		return fmt.Errorf("flash: ChipsPerChannel = %d, need >= 1", p.ChipsPerChannel)
	case p.PlanesPerChip < 1:
		return fmt.Errorf("flash: PlanesPerChip = %d, need >= 1", p.PlanesPerChip)
	case p.BlocksPerPlane < 2:
		return fmt.Errorf("flash: BlocksPerPlane = %d, need >= 2", p.BlocksPerPlane)
	case p.PagesPerBlock < 1:
		return fmt.Errorf("flash: PagesPerBlock = %d, need >= 1", p.PagesPerBlock)
	case p.PageSize < 1:
		return fmt.Errorf("flash: PageSize = %d, need >= 1", p.PageSize)
	case p.ReadLatency < 0 || p.ProgramLatency < 0 || p.EraseLatency < 0 || p.TransferPerByte < 0:
		return fmt.Errorf("flash: negative latency")
	case p.GCThreshold < 0 || p.GCThreshold >= 1:
		return fmt.Errorf("flash: GCThreshold = %v, need [0,1)", p.GCThreshold)
	case p.OverProvision < 0 || p.OverProvision >= 1:
		return fmt.Errorf("flash: OverProvision = %v, need [0,1)", p.OverProvision)
	}
	return nil
}

// Chips returns the total chip count.
func (p *Params) Chips() int { return p.Channels * p.ChipsPerChannel }

// Planes returns the total plane count.
func (p *Params) Planes() int { return p.Chips() * p.PlanesPerChip }

// Blocks returns the total physical block count.
func (p *Params) Blocks() int { return p.Planes() * p.BlocksPerPlane }

// PhysicalPages returns the total physical page count.
func (p *Params) PhysicalPages() int64 {
	return int64(p.Blocks()) * int64(p.PagesPerBlock)
}

// LogicalPages returns the page count exposed to the host after
// over-provisioning.
func (p *Params) LogicalPages() int64 {
	return int64(float64(p.PhysicalPages()) * (1 - p.OverProvision))
}

// PhysicalBytes returns the raw capacity in bytes.
func (p *Params) PhysicalBytes() int64 {
	return p.PhysicalPages() * int64(p.PageSize)
}

// PageTransferTime returns the channel occupancy of one page transfer.
func (p *Params) PageTransferTime() int64 {
	return p.TransferPerByte * int64(p.PageSize)
}

// Addressing: a PPN (physical page number) encodes plane, block and page as
//
//	ppn = (plane*BlocksPerPlane + blockInPlane)*PagesPerBlock + pageInBlock
//
// and planes are numbered channel-major: plane = ((channel*ChipsPerChannel)
// + chip)*PlanesPerChip + planeInChip.

// PlaneOfBlock returns the plane index a physical block belongs to.
func (p *Params) PlaneOfBlock(block int) int { return block / p.BlocksPerPlane }

// ChipOfBlock returns the global chip index a physical block belongs to.
func (p *Params) ChipOfBlock(block int) int {
	return p.PlaneOfBlock(block) / p.PlanesPerChip
}

// ChannelOfBlock returns the channel a physical block belongs to.
func (p *Params) ChannelOfBlock(block int) int {
	return p.ChipOfBlock(block) / p.ChipsPerChannel
}

// BlockOfPPN returns the physical block containing a PPN.
func (p *Params) BlockOfPPN(ppn int64) int { return int(ppn / int64(p.PagesPerBlock)) }

// PageOfPPN returns the in-block page index of a PPN.
func (p *Params) PageOfPPN(ppn int64) int { return int(ppn % int64(p.PagesPerBlock)) }

// ChannelOfPPN returns the channel servicing a PPN.
func (p *Params) ChannelOfPPN(ppn int64) int { return p.ChannelOfBlock(p.BlockOfPPN(ppn)) }

// ChipOfPPN returns the global chip index servicing a PPN.
func (p *Params) ChipOfPPN(ppn int64) int { return p.ChipOfBlock(p.BlockOfPPN(ppn)) }

// FirstBlockOfPlane returns the first physical block index of a plane.
func (p *Params) FirstBlockOfPlane(plane int) int { return plane * p.BlocksPerPlane }

// PPN builds a physical page number from block and in-block page.
func (p *Params) PPN(block, page int) int64 {
	return int64(block)*int64(p.PagesPerBlock) + int64(page)
}
