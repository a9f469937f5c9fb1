package obs

import (
	"sync/atomic"

	"repro/internal/ftl"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// Telemetry is the run-scoped instrument catalog: one value carries every
// histogram, counter and gauge the telemetry plane exposes, pre-registered
// in a Registry so /metrics can render them. Wire it into a run in three
// places, all optional and all passive:
//
//	tel := obs.New()
//	dev.SetTap(tel)                  // flash timing taps (program/read/erase/GC)
//	opts.Observers = append(opts.Observers, tel.Observer())
//	srv, _ := obs.Serve(addr, tel.Handler())
//
// A nil *Telemetry is valid everywhere: every method no-ops, so call sites
// need no enabled/disabled branches.
type Telemetry struct {
	reg *Registry

	// Request plane — updated once per request by the engine observer.
	Requests     *Counter
	PageHits     *Counter
	PageMisses   *Counter
	ReadMisses   *Counter
	HitRatio     *FGauge
	ReqLatency   *metrics.LogHist
	CacheLookup  *metrics.LogHist
	Bypassed     *Counter
	Prefetched   *Counter
	PolicyNodes  *Gauge
	Occupancy    *Gauge
	Capacity     *Gauge
	OccupancyPct *FGauge
	Inflight     *Gauge
	SimTime      *Gauge

	// Eviction plane — updated per victim batch.
	EvictionBatch *metrics.LogHist
	FlushedPages  *Counter
	CleanDrops    *Counter
	IdleFlushed   *Counter
	Destaged      *Counter
	DestageNs     *metrics.LogHist
	VictimScan    *metrics.LogHist

	// Flash plane — updated by the ftl.Tap methods.
	ProgramNs   *metrics.LogHist
	ReadNs      *metrics.LogHist
	EraseNs     *metrics.LogHist
	GCPauseNs   *metrics.LogHist
	GCPagesHist *metrics.LogHist

	// GC scheduler plane — preempt/resume arrive through the ftl.Tap
	// methods; the tier/pacing counters are mirrored from
	// ftl.GCSchedStats alongside the device counters.
	GCPreempts      *Counter
	GCResumes       *Counter
	GCVictimsIdle   *Counter
	GCVictimsBg     *Counter
	GCVictimsMand   *Counter
	GCPacedSteps    *Counter
	GCJobsAbandoned *Counter
	GCCostDeferred  *Counter

	// Device counters, mirrored from ssd.Counters once per request (the
	// device owns the truth; these use Counter.Set).
	FlashWrites    *Counter
	FlashReads     *Counter
	GCMigrations   *Counter
	GCRuns         *Counter
	Erases         *Counter
	ProgramRetries *Counter
	RetiredBlocks  *Counter
	InjProgram     *Counter
	InjErase       *Counter
	GrownBad       *Counter
	DegradedTrans  *Counter
	InvChecks      *Counter

	// Attribution plane — per-request blame spans folded at OnResult.
	Blame        *BlameSet
	GCPauseTotal *Counter

	// Health plane.
	Degraded *Gauge
	RunsDone *Counter

	// Shards holds the per-shard instrument sets after ShardObservers has
	// been called; nil on unsharded runs.
	Shards []*ShardSet

	// What Handler serves beyond the catalog, attached while it may be
	// serving: the /healthz source and the /debug/flightrec recorder.
	health atomic.Pointer[HealthSource]
	flight atomic.Pointer[FlightRecorder]
}

var _ ftl.Tap = (*Telemetry)(nil)

// New builds a Telemetry with its full catalog registered. Instrument
// names carry the ssdsim_ prefix; latency units are simulated nanoseconds.
func New() *Telemetry {
	r := &Registry{}
	t := &Telemetry{reg: r}

	t.Requests = r.Counter("ssdsim_requests_total", "Requests fully processed (dispatched and timed).")
	t.PageHits = r.Counter("ssdsim_page_hits_total", "Warm-phase page hits in the data cache.")
	t.PageMisses = r.Counter("ssdsim_page_misses_total", "Warm-phase page misses in the data cache.")
	t.ReadMisses = r.Counter("ssdsim_read_miss_pages_total", "Pages fetched from flash on read misses.")
	t.HitRatio = r.FGauge("ssdsim_hit_ratio", "Cumulative warm-phase page hit ratio (0..1).")
	t.ReqLatency = r.Hist("ssdsim_request_latency_ns", "Per-request response time, issue to completion, simulated ns.")
	t.CacheLookup = r.Hist("ssdsim_cache_lookup_ns", "Per-request DRAM cache service time (hits plus inserts), simulated ns.")
	t.Bypassed = r.Counter("ssdsim_bypassed_pages_total", "Pages written straight to flash, bypassing the cache.")
	t.Prefetched = r.Counter("ssdsim_prefetched_pages_total", "Readahead pages issued to the device.")
	t.PolicyNodes = r.Gauge("ssdsim_policy_nodes", "Policy list-node population (metadata footprint proxy).")
	t.Occupancy = r.Gauge("ssdsim_cache_occupancy_pages", "Pages currently resident in the data cache.")
	t.Capacity = r.Gauge("ssdsim_cache_capacity_pages", "Configured data-cache capacity in pages.")
	t.OccupancyPct = r.FGauge("ssdsim_cache_occupancy_ratio", "Occupancy divided by capacity (0..1).")
	t.Inflight = r.Gauge("ssdsim_inflight_requests", "Closed-loop requests in flight (0 in open-loop replay).")
	t.SimTime = r.Gauge("ssdsim_time_ns", "Simulated clock at the last observed event, ns.")

	t.EvictionBatch = r.Hist("ssdsim_eviction_batch_pages", "Victim batch size in pages, flushed batches only.")
	t.FlushedPages = r.Counter("ssdsim_flushed_pages_total", "Dirty pages evicted to flash, all engine stages.")
	t.CleanDrops = r.Counter("ssdsim_clean_drop_pages_total", "Clean victim pages dropped without a flash write.")
	t.IdleFlushed = r.Counter("ssdsim_idle_flushed_pages_total", "Pages flushed by the idle-window flusher.")
	t.Destaged = r.Counter("ssdsim_destaged_pages_total", "Pages drained by the periodic destager.")
	t.DestageNs = r.Hist("ssdsim_destage_ns", "Idle-flush and destage drain latency, hand-off to durable, simulated ns.")
	t.VictimScan = r.Hist("ssdsim_victim_scan_cost", "Victim-selection work per eviction batch: victim-heap pops, peeks and levels sifted.")

	t.ProgramNs = r.Hist("ssdsim_flash_program_ns", "Flash page program latency, issue to die-free, simulated ns.")
	t.ReadNs = r.Hist("ssdsim_flash_read_ns", "Flash page read latency, issue to data transferred, simulated ns.")
	t.EraseNs = r.Hist("ssdsim_flash_erase_ns", "Flash block erase latency, simulated ns.")
	t.GCPauseNs = r.Hist("ssdsim_gc_pause_ns", "GC die-busy extension on the victim chip per collection, simulated ns.")
	t.GCPagesHist = r.Hist("ssdsim_gc_pages_moved", "Valid pages migrated per GC collection.")

	t.GCPreempts = r.Counter("ssdsim_gc_preempts_total", "Scheduled-GC jobs preempted mid-victim (budget exhausted or slice ended).")
	t.GCResumes = r.Counter("ssdsim_gc_resumes_total", "Scheduled-GC jobs resumed from a preempted state.")
	t.GCVictimsIdle = r.Counter("ssdsim_gc_victims_idle_total", "GC victims opened in the idle-only urgency tier.")
	t.GCVictimsBg = r.Counter("ssdsim_gc_victims_background_total", "GC victims opened in the background-paced urgency tier.")
	t.GCVictimsMand = r.Counter("ssdsim_gc_victims_mandatory_total", "GC victims collected in the mandatory tier (greedy, on the write path).")
	t.GCPacedSteps = r.Counter("ssdsim_gc_paced_steps_total", "Copy steps piggybacked on host programs by background pacing.")
	t.GCJobsAbandoned = r.Counter("ssdsim_gc_jobs_abandoned_total", "Scheduled-GC jobs abandoned (destination allocation failed mid-job).")
	t.GCCostDeferred = r.Counter("ssdsim_gc_cost_deferred_total", "Idle slices that declined every candidate on projected pause cost.")

	t.FlashWrites = r.Counter("ssdsim_flash_writes_total", "Pages programmed for host flushes (Fig. 11 metric).")
	t.FlashReads = r.Counter("ssdsim_flash_reads_total", "Pages read from flash for the host.")
	t.GCMigrations = r.Counter("ssdsim_gc_migrations_total", "Valid-page copies performed by garbage collection.")
	t.GCRuns = r.Counter("ssdsim_gc_runs_total", "Garbage-collection victim collections.")
	t.Erases = r.Counter("ssdsim_erases_total", "Block erases.")
	t.ProgramRetries = r.Counter("ssdsim_program_retries_total", "Writes re-issued after injected program failures.")
	t.RetiredBlocks = r.Counter("ssdsim_retired_blocks_total", "Blocks permanently retired.")
	t.InjProgram = r.Counter("ssdsim_fault_program_fails_total", "Injected program failures.")
	t.InjErase = r.Counter("ssdsim_fault_erase_fails_total", "Injected erase failures.")
	t.GrownBad = r.Counter("ssdsim_fault_grown_bad_total", "Injected grown-bad-block events.")
	t.DegradedTrans = r.Counter("ssdsim_degraded_transitions_total", "Transitions into read-only degraded mode.")
	t.InvChecks = r.Counter("ssdsim_invariant_checks_total", "Post-recovery invariant suite runs.")

	t.Blame = newBlameSet(r)
	t.GCPauseTotal = r.Counter("ssdsim_gc_pause_total_ns", "Cumulative foreground-visible GC pause, mirrored from the device, simulated ns.")

	t.Degraded = r.Gauge("ssdsim_degraded", "1 while the device is in read-only degraded mode.")
	t.RunsDone = r.Counter("ssdsim_runs_completed_total", "Replays finished under this telemetry value.")
	return t
}

// Registry exposes the underlying registry (nil-safe) for exposition.
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Observer returns the sim.Observer that folds engine events into the
// catalog. On a nil Telemetry it returns a no-op observer, so callers can
// unconditionally append it.
func (t *Telemetry) Observer() sim.Observer {
	if t == nil {
		return sim.NopObserver{}
	}
	return &engineObserver{t: t}
}

// TapProgram implements ftl.Tap: one page program, issue to die-free.
func (t *Telemetry) TapProgram(issue, done int64) {
	if t != nil {
		t.ProgramNs.Observe(done - issue)
	}
}

// TapRead implements ftl.Tap: one page read, issue to data transferred.
func (t *Telemetry) TapRead(issue, done int64) {
	if t != nil {
		t.ReadNs.Observe(done - issue)
	}
}

// TapErase implements ftl.Tap: one block erase.
func (t *Telemetry) TapErase(issue, done int64) {
	if t != nil {
		t.EraseNs.Observe(done - issue)
	}
}

// TapGC implements ftl.Tap: one completed collection — the die-busy
// extension it cost on the victim chip, and the valid pages it moved.
func (t *Telemetry) TapGC(pause int64, pagesMoved int) {
	if t != nil {
		t.GCPauseNs.Observe(pause)
		t.GCPagesHist.Observe(int64(pagesMoved))
	}
}

// TapGCPreempt implements ftl.Tap: a scheduled collection was
// preempted mid-victim with pagesMoved copies done so far.
func (t *Telemetry) TapGCPreempt(now int64, pagesMoved int) {
	if t != nil {
		t.GCPreempts.Inc()
	}
}

// TapGCResume implements ftl.Tap: a preempted collection picked
// back up.
func (t *Telemetry) TapGCResume(now int64, pagesMoved int) {
	if t != nil {
		t.GCResumes.Inc()
	}
}

// syncDevice mirrors the device's counter block and degraded flag into
// the catalog. Called every syncEvery-th request and once at run end.
func (t *Telemetry) syncDevice(dev *ssd.Device) {
	if dev == nil {
		return
	}
	c := dev.Counters()
	g := dev.GCSchedStats()
	t.GCVictimsIdle.Set(g.VictimsIdle)
	t.GCVictimsBg.Set(g.VictimsBackground)
	t.GCVictimsMand.Set(g.VictimsMandatory)
	t.GCPacedSteps.Set(g.PacedSteps)
	t.GCJobsAbandoned.Set(g.JobsAbandoned)
	t.GCCostDeferred.Set(g.CostDeferred)
	t.FlashWrites.Set(c.FlashWrites)
	t.FlashReads.Set(c.FlashReads)
	t.GCMigrations.Set(c.GCMigrations)
	t.GCRuns.Set(c.GCRuns)
	t.Erases.Set(c.Erases)
	t.ProgramRetries.Set(c.ProgramRetries)
	t.RetiredBlocks.Set(c.RetiredBlocks)
	t.InjProgram.Set(c.InjectedProgramFails)
	t.InjErase.Set(c.InjectedEraseFails)
	t.GrownBad.Set(c.GrownBadBlocks)
	t.DegradedTrans.Set(c.DegradedEntries)
	t.InvChecks.Set(c.InvariantChecks)
	t.GCPauseTotal.Set(c.GCPauseNs)
	if dev.Degraded() {
		t.Degraded.Set(1)
	} else {
		t.Degraded.Set(0)
	}
}

// Healthy reports the health-endpoint condition: false once the device
// has entered degraded read-only mode.
func (t *Telemetry) Healthy() bool {
	if t == nil {
		return true
	}
	return t.Degraded.Value() == 0
}

// engineObserver folds engine events into the Telemetry catalog. It is a
// read-only consumer: it copies numbers out of events and device state and
// never mutates either, so attaching it leaves replay metrics
// bit-identical. Every update is an atomic store or add — no allocation.
//
// tick throttles the derived-gauge refresh and the device-counter mirror;
// nodes carries the last NodeCount to the throttled refresh. They live on
// the observer (not the Telemetry) so each attachment has its own — the
// observer itself is single-goroutine (one engine, or the sharded merge).
type engineObserver struct {
	t     *Telemetry
	tick  uint64
	nodes int64
}

var _ sim.Observer = (*engineObserver)(nil)

// OnRequest implements sim.Observer. The request plane is folded in at
// OnResult, where the outcome is known.
func (o *engineObserver) OnRequest(e *sim.Engine, ev *sim.RequestEvent) {}

// OnEviction implements sim.Observer.
func (o *engineObserver) OnEviction(e *sim.Engine, ev *sim.EvictionEvent) {
	t := o.t
	n := int64(len(ev.LPNs))
	// Scan cost precedes the clean-drop return: selecting a clean victim
	// is victim-selection work all the same. Zero deltas (policies that
	// report no scan work, or trailing batches of a multi-eviction Access)
	// are skipped so the histogram reflects actual selection passes.
	if ev.ScanCost > 0 {
		t.VictimScan.Observe(ev.ScanCost)
	}
	switch ev.Kind {
	case sim.EvictClean:
		t.CleanDrops.Add(n)
		return
	case sim.EvictIdle:
		t.IdleFlushed.Add(n)
	case sim.EvictDestage:
		t.Destaged.Add(n)
	}
	t.EvictionBatch.Observe(n)
	t.FlushedPages.Add(n)
	// Idle and destage batches carry device timing; request-path batches
	// are emitted before their flush and leave Durable zero.
	if ev.Durable > 0 {
		t.DestageNs.Observe(ev.Durable - ev.Time)
	}
}

// OnResult implements sim.Observer.
func (o *engineObserver) OnResult(e *sim.Engine, ev *sim.ResultEvent) {
	t := o.t
	res := ev.Res
	t.Requests.Set(int64(ev.Processed))
	if ev.Req.Warm {
		t.PageHits.Add(int64(res.Hits))
		t.PageMisses.Add(int64(res.Misses))
	}
	t.ReadMisses.Add(int64(len(res.ReadMisses)))
	t.Bypassed.Add(int64(len(res.Bypass)))
	t.Prefetched.Add(int64(ev.Prefetched))
	t.ReqLatency.Observe(ev.Completion - ev.Req.Issue)
	t.Blame.Observe(ev.Completion-ev.Req.Arrival, &ev.Blame)
	if dev := e.Device(); dev != nil {
		t.CacheLookup.Observe(int64(res.Hits+res.Inserted) * dev.Params().DRAMAccess)
	}
	o.nodes = int64(ev.NodeCount)
	// Derived gauges and the mirrored device counters cost extra loads,
	// divisions and a struct copy, so they refresh every syncEvery-th
	// request rather than every request — mid-run /metrics may lag by up
	// to syncEvery-1 requests, and OnDone does a final exact pass.
	o.tick++
	if o.tick%syncEvery == 0 {
		o.refresh(e, ev.Completion)
		t.syncDevice(e.Device())
	}
}

// syncEvery is the throttle on derived-gauge and device-mirror refreshes.
const syncEvery = 64

// refresh recomputes the derived gauges from current engine state. All
// engine reads are nil-safe: on the merged stream of a sharded run (nil
// engine) the policy- and device-derived gauges simply keep their last
// values (per-shard observers own them there).
func (o *engineObserver) refresh(e *sim.Engine, now int64) {
	t := o.t
	if hits, misses := t.PageHits.Value(), t.PageMisses.Value(); hits+misses > 0 {
		t.HitRatio.Set(float64(hits) / float64(hits+misses))
	}
	t.PolicyNodes.Set(o.nodes)
	t.SimTime.Set(now)
	if pol := e.Policy(); pol != nil {
		occ, capacity := int64(pol.Len()), int64(pol.CapacityPages())
		t.Occupancy.Set(occ)
		t.Capacity.Set(capacity)
		if capacity > 0 {
			t.OccupancyPct.Set(float64(occ) / float64(capacity))
		}
	}
	t.Inflight.Set(int64(e.Inflight(now)))
}

// OnDone implements sim.Observer.
func (o *engineObserver) OnDone(e *sim.Engine, ev *sim.DoneEvent) {
	t := o.t
	t.Requests.Set(int64(ev.Processed))
	t.RunsDone.Inc()
	o.refresh(e, ev.LastArrival)
	t.Inflight.Set(0) // the run has drained
	t.syncDevice(e.Device())
	if ev.Degraded {
		t.Degraded.Set(1)
	}
}
