package flash

// Timeline models when the shared resources of the flash array — channel
// buses and chip dies — become free, and schedules operations against them.
//
// The model is the standard queuing abstraction used by SSDsim-class
// simulators: each resource has a "next free" time; an operation starts at
// the maximum of its issue time and the free times of the resources it
// needs, occupies them for its duration, and completes when its last stage
// finishes. This captures exactly the effect the paper measures in §4.2.2:
// a batch of page flushes striped over 8 channels completes roughly 8× as
// fast as the same batch serialized on one channel (BPLRU's block-bound
// flush).
type Timeline struct {
	p        Params
	chanFree []int64 // per channel: next time the bus is idle
	chipFree []int64 // per chip: end of the die's program/erase backlog
	readFree []int64 // per chip: next time the die can serve a read

	chanBusy []int64 // per channel: accumulated bus occupancy, ns
	chipBusy []int64 // per chip: accumulated die occupancy, ns
}

// NewTimeline returns an idle timeline for the geometry.
func NewTimeline(p Params) *Timeline {
	return &Timeline{
		p:        p,
		chanFree: make([]int64, p.Channels),
		chipFree: make([]int64, p.Chips()),
		readFree: make([]int64, p.Chips()),
		chanBusy: make([]int64, p.Channels),
		chipBusy: make([]int64, p.Chips()),
	}
}

// Program schedules a page program: the channel carries the data into the
// chip's cache register (transfer time), then the die programs it. Modern
// NAND's cache-program mode lets the next page's data transfer while the
// previous page is still programming, so the transfer waits only for the
// channel; the program phase serializes on the die. Returns the transfer
// end (when the controller's buffer frame is free) and the completion time
// (when the data is durable in the cell).
func (t *Timeline) Program(now int64, channel, chip int) (transferEnd, done int64) {
	start := max(now, t.chanFree[channel])
	transferEnd = start + t.p.PageTransferTime()
	progStart := max(transferEnd, t.chipFree[chip])
	done = progStart + t.p.ProgramLatency
	t.chanFree[channel] = transferEnd
	t.chipFree[chip] = done
	t.chanBusy[channel] += t.p.PageTransferTime()
	t.chipBusy[chip] += t.p.ProgramLatency
	return transferEnd, done
}

// Read schedules a page read: the die performs the cell read, then the
// channel transfers the data out. Returns the time the data reaches the
// controller.
//
// Reads have priority over the die's program/erase backlog via
// suspend/resume (standard in modern NAND controllers): a read does not
// wait for queued programs, it suspends them, and the backlog is pushed
// back by the read's cell time. Reads still serialize with other reads on
// the same die.
func (t *Timeline) Read(now int64, channel, chip int) int64 {
	cellStart := max(now, t.readFree[chip])
	ready := cellStart + t.p.ReadLatency
	transferStart := max(ready, t.chanFree[channel])
	done := transferStart + t.p.PageTransferTime()
	t.chanFree[channel] = done
	t.readFree[chip] = ready
	if t.chipFree[chip] > cellStart {
		// Suspended program/erase work resumes after the cell read.
		t.chipFree[chip] += t.p.ReadLatency
	}
	t.chanBusy[channel] += t.p.PageTransferTime()
	t.chipBusy[chip] += t.p.ReadLatency
	return done
}

// Erase schedules a block erase; only the die is occupied.
func (t *Timeline) Erase(now int64, chip int) int64 {
	start := max(now, t.chipFree[chip])
	done := start + t.p.EraseLatency
	t.chipFree[chip] = done
	t.chipBusy[chip] += t.p.EraseLatency
	return done
}

// Copyback schedules an in-chip valid-page migration (GC): cell read
// followed by program with no channel traffic.
func (t *Timeline) Copyback(now int64, chip int) int64 {
	start := max(now, t.chipFree[chip])
	done := start + t.p.ReadLatency + t.p.ProgramLatency
	t.chipFree[chip] = done
	t.chipBusy[chip] += t.p.ReadLatency + t.p.ProgramLatency
	return done
}

// ChannelFree returns when a channel next becomes idle.
func (t *Timeline) ChannelFree(channel int) int64 { return t.chanFree[channel] }

// ChipFree returns when a chip next becomes idle.
func (t *Timeline) ChipFree(chip int) int64 { return t.chipFree[chip] }

// Utilization reports how the simulated traffic used the device's
// parallel resources over a horizon (usually the trace duration): mean
// and peak channel-bus and die occupancy fractions, plus the imbalance
// between the busiest and the mean channel — the quantity behind the
// paper's §4.2.4 argument that striped batch evictions exploit channel
// parallelism while block-bound flushes serialize.
type Utilization struct {
	// MeanChannel / MaxChannel are bus busy fractions of the horizon.
	MeanChannel, MaxChannel float64
	// MeanChip / MaxChip are die busy fractions of the horizon.
	MeanChip, MaxChip float64
	// ChannelImbalance is MaxChannel / MeanChannel (1 = perfectly even),
	// or 0 with no traffic.
	ChannelImbalance float64
}

// Utilization computes occupancy fractions over [0, horizon].
func (t *Timeline) Utilization(horizon int64) Utilization {
	var u Utilization
	if horizon <= 0 {
		return u
	}
	var sum, max int64
	for _, b := range t.chanBusy {
		sum += b
		if b > max {
			max = b
		}
	}
	u.MeanChannel = float64(sum) / float64(len(t.chanBusy)) / float64(horizon)
	u.MaxChannel = float64(max) / float64(horizon)
	if u.MeanChannel > 0 {
		u.ChannelImbalance = u.MaxChannel / u.MeanChannel
	}
	sum, max = 0, 0
	for _, b := range t.chipBusy {
		sum += b
		if b > max {
			max = b
		}
	}
	u.MeanChip = float64(sum) / float64(len(t.chipBusy)) / float64(horizon)
	u.MaxChip = float64(max) / float64(horizon)
	return u
}

// ChannelBusy returns the accumulated bus occupancy of a channel (tests).
func (t *Timeline) ChannelBusy(channel int) int64 { return t.chanBusy[channel] }

// ChipBusy returns the accumulated die occupancy of a chip (tests).
func (t *Timeline) ChipBusy(chip int) int64 { return t.chipBusy[chip] }
