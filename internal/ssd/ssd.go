// Package ssd presents the simulated solid-state drive as one device: the
// flash array and FTL behind a host-facing API, plus the DRAM service
// times for cache hits. The replayer drives a Device with the flash
// traffic the cache policy decides on (evicted batches, read misses) and
// uses the returned completion times to compute I/O response times.
package ssd

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/ftl"
)

// Params configures a simulated SSD.
type Params struct {
	// Flash is the array geometry and timing (Table 1).
	Flash flash.Params
	// DRAMAccess is the service time of one page moved to or from the
	// on-board DRAM cache, in nanoseconds. Cache hits cost only this.
	DRAMAccess int64
	// Precondition is the fraction of the logical space pre-mapped before
	// the trace starts, so GC sees an aged device.
	Precondition float64
	// Faults configures deterministic fault injection (internal/fault).
	// The zero value disables it and leaves the device bit-identical to a
	// fault-free build. The injector attaches after preconditioning, so
	// scripted operation ordinals count replay operations only.
	Faults fault.Config
	// GCSched configures the preemptible GC scheduler (internal/ftl
	// gcsched.go). The zero value keeps plain greedy GC, bit-identical to a
	// device without the scheduler. Enabled after preconditioning, so the
	// fill phase never paces.
	GCSched ftl.GCSchedConfig
}

// DefaultParams mirrors the paper's setup: Table 1 flash parameters, a
// 1 µs DRAM page access, and a device preconditioned to 50% utilization.
func DefaultParams() Params {
	return Params{
		Flash:        flash.DefaultParams(),
		DRAMAccess:   1_000,
		Precondition: 0.5,
	}
}

// ScaledParams is DefaultParams with a smaller flash array (see
// flash.ScaledParams); ratios and latencies are unchanged.
func ScaledParams(blockDivisor int) Params {
	p := DefaultParams()
	p.Flash = flash.ScaledParams(blockDivisor)
	return p
}

// Counters is a snapshot of the device's activity.
type Counters struct {
	// FlashWrites counts pages programmed for host flushes — the metric of
	// the paper's Fig. 11.
	FlashWrites int64
	// FlashReads counts pages read from flash for the host.
	FlashReads int64
	// GCMigrations counts valid-page copies performed by GC.
	GCMigrations int64
	// GCRuns counts GC victim collections.
	GCRuns int64
	// GCPauseNs is the cumulative die-busy time GC added to its victims'
	// chips — the foreground-visible pause total, accumulated with or
	// without telemetry attached.
	GCPauseNs int64
	// Erases counts block erases.
	Erases int64

	// Fault-plane counters; all zero on a fault-free device.

	// ProgramRetries counts writes re-issued after injected program
	// failures.
	ProgramRetries int64
	// RetiredBlocks counts blocks permanently retired.
	RetiredBlocks int64
	// InjectedProgramFails / InjectedEraseFails / GrownBadBlocks count the
	// faults the injector fired.
	InjectedProgramFails int64
	InjectedEraseFails   int64
	GrownBadBlocks       int64
	// DegradedEntries counts transitions into read-only mode.
	DegradedEntries int64
	// InvariantChecks counts post-recovery invariant suite runs.
	InvariantChecks int64
}

// TotalPrograms is every page program the flash saw (host + GC).
func (c Counters) TotalPrograms() int64 { return c.FlashWrites + c.GCMigrations }

// WriteAmplification is (host + GC programs) / host programs, or 0 when no
// host writes happened.
func (c Counters) WriteAmplification() float64 {
	if c.FlashWrites == 0 {
		return 0
	}
	return float64(c.TotalPrograms()) / float64(c.FlashWrites)
}

// Device is one simulated SSD. Not safe for concurrent use: trace replay is
// deterministic and single-threaded (the sharded engine gives every shard
// its own Device).
type Device struct {
	p       Params
	f       *ftl.FTL
	inj     *fault.Injector // nil on a fault-free device
	checker *fault.Checker  // nil unless Faults.CheckInvariants

	// Back-pressure plane (SetBackPressure): bpRing holds the durable
	// times of the last bpDepth flush batches; admission waits until the
	// batch bpDepth flushes ago is durable, bounding the destage backlog
	// the cache may pile onto the flash backend.
	bpRing    []int64
	bpPos     int
	bpStalls  int64
	bpStallNs int64
}

// New builds a device, preconditioning it per the params and attaching the
// fault plane (if configured) once the device is aged.
func New(p Params) (*Device, error) {
	if p.DRAMAccess < 0 {
		return nil, fmt.Errorf("ssd: negative DRAM access time")
	}
	f, err := ftl.New(p.Flash)
	if err != nil {
		return nil, err
	}
	if p.Precondition > 0 {
		if err := f.Precondition(p.Precondition); err != nil {
			return nil, err
		}
	}
	d := &Device{p: p, f: f}
	if p.GCSched.Enabled {
		f.EnableGCScheduler(p.GCSched)
	}
	if p.Faults.Enabled() {
		inj, err := fault.NewInjector(p.Faults)
		if err != nil {
			return nil, fmt.Errorf("ssd: %w", err)
		}
		// Aged-device seeding happens before the injector attaches, so the
		// wear history exists from the first replay operation but consumes
		// no fault-stream draws.
		f.PreWear(p.Faults.Seed, p.Faults.PrewornErases, p.Faults.PrewornJitter)
		d.inj = inj
		f.EnableFaults(inj)
		if p.Faults.CheckInvariants {
			d.checker = fault.NewChecker(f)
			f.SetChecker(d.checker)
		}
	}
	return d, nil
}

// SetTap attaches a timing tap to the FTL's operation paths (nil
// detaches): page programs, reads, erases and GC collections report their
// simulated timings to it. Taps observe only — attaching one never changes
// a replay's metrics. The telemetry plane (internal/obs) implements it.
func (d *Device) SetTap(t ftl.Tap) { d.f.SetTap(t) }

// FaultsEnabled reports whether a fault injector is attached.
func (d *Device) FaultsEnabled() bool { return d.inj != nil }

// Degraded reports whether the device has entered read-only mode.
func (d *Device) Degraded() bool { return d.f.Degraded() }

// ForceReadOnly trips the device into read-only degraded mode immediately
// (ftl.ForceDegrade): writes fail with fault.ErrReadOnly, reads keep
// working. An operational fuse for the service layer and its tests.
func (d *Device) ForceReadOnly() { d.f.ForceDegrade() }

// FaultStats returns the injector's fault counters (zero without faults).
func (d *Device) FaultStats() fault.Stats {
	if d.inj == nil {
		return fault.Stats{}
	}
	return d.inj.Stats()
}

// InvariantChecker returns the attached checker, or nil.
func (d *Device) InvariantChecker() *fault.Checker { return d.checker }

// Params returns the device configuration.
func (d *Device) Params() Params { return d.p }

// LogicalPages returns the host-visible capacity in pages.
func (d *Device) LogicalPages() int64 { return d.f.LogicalPages() }

// PageSize returns the page size in bytes.
func (d *Device) PageSize() int64 { return int64(d.p.Flash.PageSize) }

// CacheAccess returns the completion time of touching n pages in DRAM
// starting at now — the cost of a cache hit or of landing write data in the
// buffer.
func (d *Device) CacheAccess(now int64, n int) int64 {
	return now + int64(n)*d.p.DRAMAccess
}

// SetBackPressure bounds the destage backlog between the cache and the
// flash backend to depth outstanding flush batches (MQSim's
// back_pressure_buffer_max_depth): once depth batches are in flight, the
// next admission (AdmitAt) waits for the oldest to become durable. Zero
// disables and is the default — a device without back-pressure admits at
// the caller's time unchanged, so existing replays are bit-identical.
func (d *Device) SetBackPressure(depth int) {
	if depth <= 0 {
		d.bpRing = nil
		return
	}
	d.bpRing = make([]int64, depth)
	d.bpPos = 0
}

// BackPressureDepth returns the configured backlog bound (0 = off).
func (d *Device) BackPressureDepth() int { return len(d.bpRing) }

// AdmitAt returns the earliest time at or after now a new request may be
// admitted under the back-pressure bound, accounting any wait as a stall.
// Without back-pressure configured it returns now unchanged.
func (d *Device) AdmitAt(now int64) int64 {
	if d.bpRing == nil {
		return now
	}
	if gate := d.bpRing[d.bpPos]; gate > now {
		d.bpStalls++
		d.bpStallNs += gate - now
		return gate
	}
	return now
}

// BackPressureStalls reports how many admissions waited on the backlog
// bound and for how long in total (simulated ns).
func (d *Device) BackPressureStalls() (stalls int64, stallNs int64) {
	return d.bpStalls, d.bpStallNs
}

// GCPauseNs returns the cumulative foreground-visible GC pause. It is a
// cheap field read (no Stats snapshot) so the engine can diff it around
// every dispatch for per-request GC-overlap attribution.
func (d *Device) GCPauseNs() int64 { return d.f.GCPauseNs() }

// noteFlush records one flush batch's durable time in the back-pressure
// ring. Every flush path calls it; a nil ring makes it a no-op.
func (d *Device) noteFlush(durable int64) {
	if d.bpRing == nil {
		return
	}
	d.bpRing[d.bpPos] = durable
	d.bpPos = (d.bpPos + 1) % len(d.bpRing)
}

// FlushStriped writes a batch of evicted pages using dynamic allocation
// across all channels. The returned timing separates when the buffer
// frames are free (Transferred — what an evicting host request waits for)
// from when the data is durable.
func (d *Device) FlushStriped(now int64, lpns []int64) (ftl.BatchTiming, error) {
	t, err := d.f.WriteStriped(now, lpns)
	if err != nil {
		return ftl.BatchTiming{}, fmt.Errorf("ssd: striped flush: %w", err)
	}
	d.noteFlush(t.Durable)
	return t, nil
}

// FlushBlockBound writes a batch onto a single plane (BPLRU's whole-block
// flush); see FlushStriped for the timing semantics.
func (d *Device) FlushBlockBound(now int64, lpns []int64) (ftl.BatchTiming, error) {
	t, err := d.f.WriteBlockBound(now, lpns)
	if err != nil {
		return ftl.BatchTiming{}, fmt.Errorf("ssd: block-bound flush: %w", err)
	}
	d.noteFlush(t.Durable)
	return t, nil
}

// ReadPages reads a batch of pages from flash, returning when the last one
// reaches the controller.
func (d *Device) ReadPages(now int64, lpns []int64) (int64, error) {
	done, err := d.f.Read(now, lpns)
	if err != nil {
		return 0, fmt.Errorf("ssd: read: %w", err)
	}
	return done, nil
}

// Counters snapshots the device activity.
func (d *Device) Counters() Counters {
	s := d.f.Stats()
	c := Counters{
		FlashWrites:     s.HostPrograms,
		FlashReads:      s.HostReads,
		GCMigrations:    s.GCMigrations,
		GCRuns:          s.GCRuns,
		GCPauseNs:       s.GCPauseNs,
		Erases:          s.Erases,
		ProgramRetries:  s.ProgramRetries,
		RetiredBlocks:   s.RetiredBlocks,
		DegradedEntries: s.DegradedEntries,
	}
	if d.inj != nil {
		fs := d.inj.Stats()
		c.InjectedProgramFails = fs.ProgramFails
		c.InjectedEraseFails = fs.EraseFails
		c.GrownBadBlocks = fs.GrownBad
	}
	if d.checker != nil {
		c.InvariantChecks = d.checker.Checks()
	}
	return c
}

// BackgroundGC runs opportunistic garbage collection during an idle
// window (up to maxVictims block collections), refilling free-block
// headroom before foreground writes would stall on it. Returns the victim
// count.
func (d *Device) BackgroundGC(now int64, maxVictims int) int {
	soft := int(float64(d.p.Flash.BlocksPerPlane)*d.p.Flash.GCThreshold) * 2
	return d.f.BackgroundGC(now, maxVictims, soft)
}

// EnableGCScheduler turns on (or reconfigures) the preemptible GC
// scheduler after construction — the budgeted evolution of BackgroundGC.
// Devices built with Params.GCSched.Enabled need no explicit call.
func (d *Device) EnableGCScheduler(cfg ftl.GCSchedConfig) {
	d.f.EnableGCScheduler(cfg)
}

// GCSchedEnabled reports whether the preemptible GC scheduler is on.
func (d *Device) GCSchedEnabled() bool { return d.f.GCSchedulerEnabled() }

// ScheduleGC grants the GC scheduler one budgeted slice of projected die
// time at now, resuming any preempted victim collection first. Returns the
// victim collections completed. A no-op (0) without the scheduler enabled.
func (d *Device) ScheduleGC(now, budgetNs int64) int {
	return d.f.ScheduleGC(now, budgetNs)
}

// GCSchedStats returns the scheduler's cumulative counters (all zero when
// the scheduler is disabled).
func (d *Device) GCSchedStats() ftl.GCSchedStats { return d.f.GCSchedStats() }

// GCJobInFlight reports whether a preempted GC victim collection is
// pending resume.
func (d *Device) GCJobInFlight() bool { return d.f.GCJobInFlight() }

// FlushOnChannel writes a batch onto one channel's planes (ECR's
// channel-affine flush); see FlushStriped for the timing semantics.
func (d *Device) FlushOnChannel(now int64, lpns []int64, channel int) (ftl.BatchTiming, error) {
	t, err := d.f.WriteOnChannel(now, lpns, channel)
	if err != nil {
		return ftl.BatchTiming{}, fmt.Errorf("ssd: channel flush: %w", err)
	}
	d.noteFlush(t.Durable)
	return t, nil
}

// Channels implements cache.DeviceView.
func (d *Device) Channels() int { return d.p.Flash.Channels }

// ChannelFreeAt implements cache.DeviceView: when the channel's bus frees.
func (d *Device) ChannelFreeAt(channel int) int64 {
	return d.f.Timeline().ChannelFree(channel)
}

// Trim discards logical pages (ATA TRIM / NVMe Deallocate): stale copies
// are invalidated so GC reclaims them without migration.
func (d *Device) Trim(lpns []int64) error {
	if err := d.f.Trim(lpns); err != nil {
		return fmt.Errorf("ssd: trim: %w", err)
	}
	return nil
}

// Utilization reports channel/die occupancy fractions over [0, horizon].
func (d *Device) Utilization(horizon int64) flash.Utilization {
	return d.f.Timeline().Utilization(horizon)
}

// CheckInvariants validates the FTL and array state (tests only).
func (d *Device) CheckInvariants() error { return d.f.CheckInvariants() }
