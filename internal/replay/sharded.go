package replay

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/flash"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// ShardSpec describes the partitioning of a sharded replay: how many
// shards, how the global capacity divides among them, and how to build
// each shard's policy and device. Everything measurement-related stays in
// Options — a sharded run honors the same instrumentation set. RunSharded
// rejects a spec sim.NewSharded cannot build.
type ShardSpec struct {
	// Shards is the partition count, >= 1. One shard runs the bare engine
	// (RunSource is exactly that).
	Shards int
	// Sharing divides TotalCapacityPages: sim.SharingShared gives every
	// shard the full capacity with a soft quota of capacity/N,
	// sim.SharingEqual hard-partitions into N slices.
	Sharing sim.SharingMode
	// TotalCapacityPages is the global write-buffer capacity.
	TotalCapacityPages int
	// NewPolicy builds shard k's policy with its capacity slice.
	NewPolicy func(shard, capacityPages int) cache.Policy
	// NewDevice builds shard k's device.
	NewDevice func(shard int) (*ssd.Device, error)
	// TenantRegionPages sizes the hash regions used to route requests
	// when Options.TenantBoundaries is empty (0 = sim's default); setting
	// both is rejected.
	TenantRegionPages int64
	// ShardObservers optionally attaches extra observers to each shard's
	// engine (per-shard telemetry); they run on the shard goroutine.
	ShardObservers func(shard int, eng *sim.Engine) []sim.Observer
}

// RunShardedTrace is Run's sharded counterpart: it derives the small/large
// threshold from the materialized trace (which needs the device page size,
// so pass it explicitly) and then streams the trace through RunSharded.
func RunShardedTrace(tr *trace.Trace, pageSize int64, spec ShardSpec, opts Options) (*Metrics, error) {
	if opts.SmallThresholdPages == 0 {
		opts.SmallThresholdPages = meanRequestPages(tr, pageSize)
	}
	return RunSharded(tr.Source(), spec, opts)
}

// RunSharded is the replay: it replays a streaming source across
// Spec.Shards shard engines, each owning one policy instance and one
// device, and folds the event stream into Metrics. With one shard the bare
// engine runs over a read-ahead of the source, joined before RunSharded
// returns. With more, requests route to shards by tenant
// (Options.TenantBoundaries) or by hashed address region and the events
// re-merge in global trace order, so the metrics are deterministic
// run-to-run regardless of scheduling.
//
// The crash harness cuts the request stream at one global ordinal and sums
// the dirty pages still buffered across shards; occupancy series require
// cache.OccupancySampler policies (each shard's sample is taken at its
// results and summed on the merged stream).
func RunSharded(src trace.Source, spec ShardSpec, opts Options) (*Metrics, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.TrackPageFates && opts.SmallThresholdPages == 0 {
		return nil, fmt.Errorf("replay: TrackPageFates on a streaming source needs an explicit SmallThresholdPages (Run derives it from the materialized trace)")
	}

	eng, err := sim.NewSharded(src, sim.ShardConfig{
		Shards:             spec.Shards,
		Sharing:            spec.Sharing,
		TotalCapacityPages: spec.TotalCapacityPages,
		NewPolicy:          spec.NewPolicy,
		NewDevice:          spec.NewDevice,
		TenantBoundaries:   opts.TenantBoundaries,
		TenantRegionPages:  spec.TenantRegionPages,
		BackPressureDepth:  opts.BackPressureDepth,
		Engine: sim.Config{
			WarmupRequests: opts.WarmupRequests,
			IdleFlushNs:    opts.IdleFlushNs,
			GCBudgetNs:     opts.GCBudgetNs,
			QueueDepth:     opts.QueueDepth,
			DestageNs:      opts.DestageNs,
		},
		StopAfterRequests: opts.CrashAtRequest,
		CaptureOccupancy:  opts.SeriesInterval > 0,
		ShardObservers:    spec.ShardObservers,
	})
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	pols := eng.ShardPolicies()

	m := &Metrics{
		Trace:               src.Name(),
		Policy:              pols[0].Name(),
		EvictionBatch:       metrics.NewHist(512),
		NodeBytes:           pols[0].NodeBytes(),
		ResponseHist:        &metrics.LogHist{},
		SmallThresholdPages: opts.SmallThresholdPages,
	}
	m.ResponseP50 = metrics.Percentile{Hist: m.ResponseHist, Q: 0.5}
	m.ResponseP99 = metrics.Percentile{Hist: m.ResponseHist, Q: 0.99}
	m.ResponseP999 = metrics.Percentile{Hist: m.ResponseHist, Q: 0.999}

	// The measurement plane: the core metrics observer always runs; the
	// specialized observers attach only when their option asks for them,
	// so the hot path never pays for bookkeeping nobody requested.
	core := &coreObserver{m: m}
	eng.Observe(core)
	if opts.TrackPageFates {
		m.InsertBySize = metrics.NewHist(256)
		m.HitBySize = metrics.NewHist(256)
		eng.Observe(&fateObserver{m: m, fates: make(map[int64]pageFate, spec.TotalCapacityPages)})
	}
	if n := len(opts.TenantBoundaries); n > 0 {
		m.Tenants = make([]TenantMetrics, n)
		var prev int64
		for i, b := range opts.TenantBoundaries {
			m.Tenants[i] = TenantMetrics{FirstPage: prev, LastPage: b}
			prev = b
		}
		eng.Observe(&tenantObserver{m: m})
	}
	if opts.SeriesInterval > 0 {
		if obs := newOccupancyObserver(m, pols, opts.SeriesInterval); obs != nil {
			eng.Observe(obs)
		}
	}
	// Caller-supplied observers run last, after the metric plane has folded
	// each event in, so anything they read through the engine is current.
	eng.Observe(opts.Observers...)

	done, err := eng.Run()
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}

	// Crash accounting: the stream was cut at the crash ordinal; the dirty
	// pages still buffered anywhere are the simulated loss.
	if opts.CrashAtRequest > 0 && eng.StoppedFeeding() && done.Processed >= opts.CrashAtRequest {
		m.Crashed = true
		m.CrashedAtRequest = done.Processed
		var lost int64
		for _, pol := range pols {
			if dp, ok := pol.(cache.DirtyPager); ok {
				lost += int64(dp.DirtyPages())
			} else {
				lost += int64(pol.Len())
			}
		}
		m.LostDirtyPages = lost
	}

	aggregateShardDevices(m, eng.ShardDevices(), done, core.dramPages)
	return m, nil
}

// aggregateShardDevices is where device state reaches Metrics: it folds
// the per-shard device snapshots into the single-device fields. Counters
// and energies sum, wear and utilization merge distributionally; one
// shard copies its device's snapshot as is. Open-loop utilization is
// defined over the trace horizon — the whole source's time span, even when
// the run stopped early.
func aggregateShardDevices(m *Metrics, devs []*ssd.Device, done sim.DoneEvent, dramPages int64) {
	ep := ssd.DefaultEnergyParams()
	horizon := int64(0)
	if done.HasRequests {
		horizon = done.LastArrival - done.FirstArrival
	}
	if len(devs) == 1 {
		dev := devs[0]
		m.Device = dev.Counters()
		m.GCSched = dev.GCSchedStats()
		m.BackPressureStalls, m.BackPressureStallNs = dev.BackPressureStalls()
		m.Endurance = dev.Endurance(0)
		m.Energy = dev.Energy(ep)
		m.DRAMEnergyUJ = float64(dramPages) * ep.DRAMAccessUJ
		if done.HasRequests {
			m.Utilization = dev.Utilization(horizon)
		}
		return
	}

	var wear flash.Wear
	var meanErase, variance float64
	var util flash.Utilization
	end := ssd.Endurance{PELimit: ssd.DefaultPELimit}
	n := float64(len(devs))
	for i, dev := range devs {
		c := dev.Counters()
		m.Device.FlashWrites += c.FlashWrites
		m.Device.FlashReads += c.FlashReads
		m.Device.GCMigrations += c.GCMigrations
		m.Device.GCRuns += c.GCRuns
		m.Device.GCPauseNs += c.GCPauseNs
		m.Device.Erases += c.Erases
		m.Device.ProgramRetries += c.ProgramRetries
		m.Device.RetiredBlocks += c.RetiredBlocks
		m.Device.InjectedProgramFails += c.InjectedProgramFails
		m.Device.InjectedEraseFails += c.InjectedEraseFails
		m.Device.GrownBadBlocks += c.GrownBadBlocks
		m.Device.DegradedEntries += c.DegradedEntries
		m.Device.InvariantChecks += c.InvariantChecks
		g := dev.GCSchedStats()
		m.GCSched.JobsStarted += g.JobsStarted
		m.GCSched.JobsCompleted += g.JobsCompleted
		m.GCSched.JobsAbandoned += g.JobsAbandoned
		m.GCSched.Preempts += g.Preempts
		m.GCSched.Resumes += g.Resumes
		m.GCSched.PacedSteps += g.PacedSteps
		m.GCSched.VictimsIdle += g.VictimsIdle
		m.GCSched.VictimsBackground += g.VictimsBackground
		m.GCSched.VictimsMandatory += g.VictimsMandatory
		m.GCSched.CostDeferred += g.CostDeferred
		stalls, stallNs := dev.BackPressureStalls()
		m.BackPressureStalls += stalls
		m.BackPressureStallNs += stallNs

		e := dev.Energy(ep)
		m.Energy.ReadsUJ += e.ReadsUJ
		m.Energy.ProgramsUJ += e.ProgramsUJ
		m.Energy.ErasesUJ += e.ErasesUJ
		m.Energy.GCUJ += e.GCUJ
		m.Energy.TotalUJ += e.TotalUJ

		ed := dev.Endurance(0)
		// Worst shard bounds the fleet's life; projections sum (each
		// shard absorbs its own host stream at its own amplification).
		if ed.LifeConsumed > end.LifeConsumed {
			end.LifeConsumed = ed.LifeConsumed
		}
		end.ProjectedHostPages += ed.ProjectedHostPages
		w := ed.Wear
		if i == 0 || w.MinErase < wear.MinErase {
			wear.MinErase = w.MinErase
		}
		if w.MaxErase > wear.MaxErase {
			wear.MaxErase = w.MaxErase
		}
		wear.TotalErases += w.TotalErases
		meanErase += w.MeanErase / n
		variance += (w.StdDev*w.StdDev + w.MeanErase*w.MeanErase) / n

		if done.HasRequests {
			u := dev.Utilization(horizon)
			util.MeanChannel += u.MeanChannel / n
			util.MeanChip += u.MeanChip / n
			if u.MaxChannel > util.MaxChannel {
				util.MaxChannel = u.MaxChannel
			}
			if u.MaxChip > util.MaxChip {
				util.MaxChip = u.MaxChip
			}
		}
	}
	wear.MeanErase = meanErase
	// Pooled standard deviation over equal-sized shard arrays:
	// E[x²] − (E[x])², with E[x²] reconstructed from per-shard moments.
	if v := variance - meanErase*meanErase; v > 0 {
		wear.StdDev = math.Sqrt(v)
	}
	end.Wear = wear
	end.WriteAmplification = m.Device.WriteAmplification()
	m.Endurance = end
	m.DRAMEnergyUJ = float64(dramPages) * ep.DRAMAccessUJ
	if util.MeanChannel > 0 {
		util.ChannelImbalance = util.MaxChannel / util.MeanChannel
	}
	m.Utilization = util
}
