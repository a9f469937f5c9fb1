// Package sim is the streaming replay engine: it pulls requests from a
// trace.Source one at a time, steps the cache policy, dispatches the
// resulting flash work on the simulated device's timeline, and computes
// per-request completion times — in O(cache) memory, independent of trace
// length.
//
// The engine simulates; it does not measure. Every metric — hit ratios,
// response summaries, eviction histograms, page fates, tenant splits,
// occupancy series, crash-loss accounting — lives in Observer
// implementations registered on the engine (internal/replay assembles the
// paper's full metric set this way). The per-request pipeline is:
//
//	source → idle/destage stage → cache step → device dispatch → completion
//	            │OnEviction           │OnRequest   │OnEviction      │OnResult
//
// followed by one OnDone when the source is exhausted or an observer (or
// device degradation) stops the run.
//
// Determinism: given the same source, policy, device and config, the
// engine performs the identical operation sequence as the materialized
// replay loop it replaced, so all metrics are bit-identical (enforced by
// the equivalence tests in internal/replay).
package sim

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// Config tunes the engine's simulation behavior. Measurement knobs (fates,
// series intervals, tenants) are observer concerns and live in
// replay.Options.
type Config struct {
	// WarmupRequests marks the first N requests cold (RequestEvent.Warm
	// is false): they drive the cache and device but observers exclude
	// them from steady-state metrics.
	WarmupRequests int
	// IdleFlushNs enables proactive eviction (cache.IdleEvictor policies)
	// during arrival gaps of at least this many nanoseconds. Zero
	// disables.
	IdleFlushNs int64
	// GCBudgetNs, when positive, grants the device's preemptible GC
	// scheduler a budgeted slice in each idle window: the idle flusher
	// drains dirty data first, then the remainder of the window (capped at
	// this budget) goes to ssd.Device.ScheduleGC. Requires IdleFlushNs > 0
	// and a device with the scheduler enabled (BuildShards enables it).
	// Zero leaves idle windows to the flusher alone.
	GCBudgetNs int64
	// QueueDepth switches from open-loop to closed-loop issue: request i
	// issues at max(arrival_i, completion_{i-QueueDepth}). Zero keeps the
	// open loop.
	QueueDepth int
	// DestageNs drains victim batches every DestageNs of simulated time,
	// bounding the dirty data a crash can lose. Zero disables.
	DestageNs int64
	// SoftQuotaPages, when positive, drains victim batches (IdleEvictor
	// policies) after any request that leaves more than this many pages
	// buffered. The sharded engine uses it for SHARED-mode partitions: a
	// shard may borrow past its slice of the global capacity, and the
	// overflow is destaged right away, as far as the policy's EvictIdle
	// nominates victims. Zero disables.
	SoftQuotaPages int
}

// Engine replays one source against one policy and device. Build it with
// New, register observers with Observe, then call Run once.
type Engine struct {
	src trace.Source
	pol cache.Policy
	dev *ssd.Device
	cfg Config
	obs []Observer

	// Reusable event storage: one instance per event type, overwritten
	// per emission so the hot path never allocates.
	reqEv RequestEvent
	resEv ResultEvent
	evEv  EvictionEvent
	res   cache.Result

	idler     cache.IdleEvictor
	scanRep   cache.VictimScanReporter
	lastScan  int64 // scanRep counter at the previous eviction emission
	logical   int64
	window    []int64 // closed-loop completion ring, len == QueueDepth
	windowPos int

	processed   int
	nextDestage int64
	stopped     bool // engine-internal stop (degradation)
	stop        bool // observer-requested stop (crash harness)

	degraded   bool
	degradedAt int
	idleGCRuns int64
}

// New builds an engine. The source is consumed exactly once by Run.
func New(src trace.Source, pol cache.Policy, dev *ssd.Device, cfg Config) *Engine {
	return &Engine{src: src, pol: pol, dev: dev, cfg: cfg}
}

// Observe registers observers; they receive events in registration order.
func (e *Engine) Observe(obs ...Observer) {
	e.obs = append(e.obs, obs...)
}

// Stop ends the run after the current request: the engine emits no
// further request events and proceeds to OnDone. The crash harness calls
// it from OnResult when the simulated power loss point is reached.
// Nil-safe (a no-op on the merged stream of a run with two or more
// shards, where no single engine is addressable).
func (e *Engine) Stop() {
	if e != nil {
		e.stop = true
	}
}

// Policy returns the policy under simulation (for observers that inspect
// policy state). Nil-safe: merged-stream observers of a run with two or
// more shards receive a nil engine, because no single engine's live state
// is race-free to read from the merger.
func (e *Engine) Policy() cache.Policy {
	if e == nil {
		return nil
	}
	return e.pol
}

// Device returns the device under simulation (nil-safe, see Policy).
func (e *Engine) Device() *ssd.Device {
	if e == nil {
		return nil
	}
	return e.dev
}

// degrade records a read-only-mode stop. The run ends gracefully instead
// of failing: degradation is an outcome the fault experiments report, not
// an error.
func (e *Engine) degrade(err error) bool {
	if !errors.Is(err, fault.ErrReadOnly) {
		return false
	}
	if !e.degraded {
		e.degraded = true
		e.degradedAt = e.processed
	}
	return true
}

func (e *Engine) emitEviction(kind EvictionKind, at int64, lpns []int64) {
	e.emitEvictionTimed(kind, at, lpns, 0, 0)
}

// emitEvictionTimed additionally reports the batch's device timing for
// stages that flush before emitting (idle and destage drains).
func (e *Engine) emitEvictionTimed(kind EvictionKind, at int64, lpns []int64, transferred, durable int64) {
	var scanCost int64
	if e.scanRep != nil {
		total := e.scanRep.VictimScanCost()
		scanCost = total - e.lastScan
		e.lastScan = total
	}
	e.evEv = EvictionEvent{Kind: kind, Time: at, LPNs: lpns, Transferred: transferred, Durable: durable, ScanCost: scanCost}
	for _, o := range e.obs {
		o.OnEviction(e, &e.evEv)
	}
}

// VictimScanCost returns the policy's cumulative victim-selection work
// counter, 0 when the policy does not report one (see
// cache.VictimScanReporter). Observers use it to relate total selection
// work to eviction counts; the per-batch delta rides on EvictionEvent.
func (e *Engine) VictimScanCost() int64 {
	if e.scanRep == nil {
		return 0
	}
	return e.scanRep.VictimScanCost()
}

// Inflight returns how many closed-loop window slots hold completions
// later than t — the outstanding request count at time t. Always 0 in
// open-loop mode (no window is kept). Observers use it as a live queue
// depth gauge.
func (e *Engine) Inflight(t int64) int {
	if e == nil {
		return 0
	}
	n := 0
	for _, freeAt := range e.window {
		if freeAt > t {
			n++
		}
	}
	return n
}

// Run consumes the source and returns the run summary. It may be called
// once per engine.
func (e *Engine) Run() (DoneEvent, error) {
	e.begin()
	pageSize := e.dev.PageSize()

	var done DoneEvent
	var prevArrival int64
	for i := 0; ; i++ {
		req, ok := e.src.Next()
		if !ok {
			break
		}
		if !done.HasRequests {
			done.HasRequests = true
			done.FirstArrival = req.Time
		}
		done.LastArrival = req.Time

		// Idle stage: proactive eviction in the arrival gap before this
		// request, then a GC slice, then any pending destage ticks.
		if e.cfg.IdleFlushNs > 0 && i > 0 {
			idleAt := prevArrival
			if e.idler != nil {
				var err error
				if idleAt, err = e.idleFlush(prevArrival, req.Time); err != nil {
					return done, err
				}
			}
			if e.cfg.GCBudgetNs > 0 && !e.stopped && req.Time-prevArrival >= e.cfg.IdleFlushNs {
				// The rest of the window, capped at the budget, goes to the
				// preemptible GC scheduler, which preempts itself cleanly
				// before the next arrival.
				budget := min(e.cfg.GCBudgetNs, req.Time-idleAt)
				e.idleGCRuns += int64(e.dev.ScheduleGC(idleAt, budget))
			}
		}
		if e.cfg.DestageNs > 0 && e.idler != nil && !e.stopped {
			if err := e.destage(req.Time); err != nil {
				return done, err
			}
		}
		if e.stopped {
			break
		}
		prevArrival = req.Time

		if err := e.processRequest(i, req, pageSize); err != nil {
			return done, err
		}
		if e.stopped || e.stop {
			break
		}
	}
	// Horizon drain: an early stop still defines the trace time span over
	// the whole source (open-loop utilization covers the trace duration),
	// so consume the remainder for its last arrival — parse-only, O(1).
	for {
		req, ok := e.src.Next()
		if !ok {
			break
		}
		if !done.HasRequests {
			done.HasRequests = true
			done.FirstArrival = req.Time
		}
		done.LastArrival = req.Time
	}
	if err := e.src.Err(); err != nil {
		return done, err
	}
	// A device that entered read-only mode during background work (idle
	// GC) without a subsequent write failing still reports as degraded.
	if e.dev.Degraded() && !e.degraded {
		e.degraded = true
		e.degradedAt = e.processed
	}
	// End-of-replay invariant sweep (fault.Config.CheckInvariants); runs
	// before OnDone so the final check is included in the counter snapshot
	// observers take there.
	if c := e.dev.InvariantChecker(); c != nil {
		if err := c.Check(); err != nil {
			return done, fmt.Errorf("sim: %s end-of-replay invariants: %w", e.src.Name(), err)
		}
	}
	done.Processed = e.processed
	done.Degraded = e.degraded
	done.DegradedAtRequest = e.degradedAt
	done.Stopped = e.stop
	done.IdleGCRuns = e.idleGCRuns
	for _, o := range e.obs {
		o.OnDone(e, &done)
	}
	return done, nil
}

// begin wires the engine to its policy and device: attach DeviceAware
// policies, resolve the idle evictor, and size the closed-loop window.
// Run calls it once; the in-package alloc test calls it directly to drive
// processRequest in isolation.
func (e *Engine) begin() {
	if da, ok := e.pol.(cache.DeviceAware); ok {
		da.AttachDevice(e.dev)
	}
	e.idler, _ = e.pol.(cache.IdleEvictor)
	e.scanRep, _ = e.pol.(cache.VictimScanReporter)
	if e.scanRep != nil {
		e.lastScan = e.scanRep.VictimScanCost()
	}
	e.logical = e.dev.LogicalPages()
	if e.cfg.QueueDepth > 0 {
		e.window = make([]int64, e.cfg.QueueDepth)
	}
}

// idleFlush drains victim batches during the idle gap [prevArrival,
// arrival), as many as fit before the next arrival. It returns the time
// the flusher reached, so the scheduled-GC stage knows how much of the
// window remains.
func (e *Engine) idleFlush(prevArrival, arrival int64) (int64, error) {
	idleAt := prevArrival
	for arrival-idleAt >= e.cfg.IdleFlushNs {
		ev, ok := e.idler.EvictIdle(idleAt)
		if !ok || len(ev.LPNs) == 0 {
			break
		}
		bt, err := e.dev.FlushStriped(idleAt, ev.LPNs)
		if err != nil {
			if e.degrade(err) {
				e.stopped = true
				break
			}
			return idleAt, fmt.Errorf("sim: %s idle flush: %w", e.src.Name(), err)
		}
		e.emitEvictionTimed(EvictIdle, idleAt, ev.LPNs, bt.Transferred, bt.Durable)
		idleAt = bt.Transferred
	}
	return idleAt, nil
}

// destage runs every periodic destage tick due before arrival, draining
// victim batches at each tick.
func (e *Engine) destage(arrival int64) error {
	if e.nextDestage == 0 {
		e.nextDestage = arrival + e.cfg.DestageNs
	}
	for arrival >= e.nextDestage && !e.stopped {
		tick := e.nextDestage
		e.nextDestage += e.cfg.DestageNs
		for {
			ev, ok := e.idler.EvictIdle(tick)
			if !ok || len(ev.LPNs) == 0 {
				break
			}
			bt, err := e.dev.FlushStriped(tick, ev.LPNs)
			if err != nil {
				if e.degrade(err) {
					e.stopped = true
					break
				}
				return fmt.Errorf("sim: %s destage: %w", e.src.Name(), err)
			}
			e.emitEvictionTimed(EvictDestage, tick, ev.LPNs, bt.Transferred, bt.Durable)
		}
	}
	return nil
}

// processRequest is the cache-step and device-dispatch stages for one
// request: issue-time resolution, policy access, flash dispatch,
// completion, and the OnRequest/OnResult events around them.
func (e *Engine) processRequest(i int, req trace.Request, pageSize int64) error {
	first, pages := req.PageSpan(pageSize)
	if pages == 0 {
		return nil
	}
	if first+int64(pages) > e.logical {
		return fmt.Errorf("sim: %s request %d beyond device: lpn %d+%d > %d",
			e.src.Name(), i, first, pages, e.logical)
	}
	// Issue time: the trace arrival, or — in closed-loop mode — when a
	// queue slot frees up (the completion of the request QueueDepth
	// places back), whichever is later.
	now := req.Time
	if e.window != nil {
		if freeAt := e.window[e.windowPos]; freeAt > now {
			now = freeAt
		}
	}
	issue := now
	// Back-pressure admission: when the device's destage backlog is at its
	// configured depth, the request waits for the oldest outstanding flush
	// batch to become durable. The stall happens after issue, so it counts
	// toward the request's response time (the host already submitted; the
	// device pushed back). A no-op (returns now) unless the device has
	// back-pressure configured.
	now = e.dev.AdmitAt(now)
	e.reqEv = RequestEvent{
		Index: i, Arrival: req.Time, Issue: issue,
		Write: req.Write, LPN: first, Pages: pages,
		Warm: i >= e.cfg.WarmupRequests,
	}
	for _, o := range e.obs {
		o.OnRequest(e, &e.reqEv)
	}

	creq := cache.Request{Time: now, Write: req.Write, LPN: first, Pages: pages}
	e.res = e.pol.Access(creq)
	completion := e.dev.CacheAccess(now, e.res.Hits+e.res.Inserted)

	// Blame attribution: each phase boundary charges its delta of the
	// running completion time to one cause, so the entries sum exactly to
	// Completion - Arrival. Dispatch charges Evict/Bypass/Read itself.
	// The attribution accumulates in place in resEv, whose remaining
	// fields are set one by one once the request completes: assigning a
	// whole ResultEvent would copy it per request.
	bl := &e.resEv.Blame
	*bl = Blame{}
	bl.Ns[BlameQueue] = issue - req.Time
	bl.Ns[BlameStall] = now - issue
	bl.Ns[BlameCache] = completion - now
	gc0 := e.dev.GCPauseNs()
	var scan0 int64
	if e.scanRep != nil {
		scan0 = e.scanRep.VictimScanCost()
	}

	completion, prefetched, err := e.dispatch(now, completion)
	if err != nil || e.stopped {
		return err
	}
	bl.GCPauseNs = e.dev.GCPauseNs() - gc0
	if e.scanRep != nil {
		bl.ScanCost = e.scanRep.VictimScanCost() - scan0
	}

	if e.window != nil {
		e.window[e.windowPos] = completion
		e.windowPos = (e.windowPos + 1) % len(e.window)
	}
	e.processed++
	ev := &e.resEv
	ev.Req, ev.Res = &e.reqEv, &e.res
	ev.Completion, ev.Prefetched = completion, prefetched
	ev.Processed, ev.NodeCount = e.processed, e.pol.NodeCount()
	for _, o := range e.obs {
		o.OnResult(e, &e.resEv)
	}
	if e.cfg.SoftQuotaPages > 0 && e.idler != nil && e.pol.Len() > e.cfg.SoftQuotaPages {
		return e.quotaDrain(completion)
	}
	return nil
}

// quotaDrain destages the pages buffered beyond Config.SoftQuotaPages
// (SHARED-mode sharding: borrowed capacity is pushed back out right away).
// The policy keeps victim choice; the drain stops as soon as the quota is
// met again or the policy declines to nominate a victim.
func (e *Engine) quotaDrain(now int64) error {
	for e.pol.Len() > e.cfg.SoftQuotaPages {
		ev, ok := e.idler.EvictIdle(now)
		if !ok || len(ev.LPNs) == 0 {
			break
		}
		bt, err := e.dev.FlushStriped(now, ev.LPNs)
		if err != nil {
			if e.degrade(err) {
				e.stopped = true
				return nil
			}
			return fmt.Errorf("sim: %s quota drain: %w", e.src.Name(), err)
		}
		e.emitEvictionTimed(EvictQuota, now, ev.LPNs, bt.Transferred, bt.Durable)
	}
	return nil
}

// dispatch turns the cache decision into device work: eviction flushes
// (the request waits for the victims' channel transfers — the cell
// programs continue asynchronously on the dies), bypass streams, read
// misses, and background prefetches. It returns the request's completion
// time and the prefetch count actually issued.
func (e *Engine) dispatch(now, completion int64) (int64, int, error) {
	// Evictions: flush victims; the request waits for durability.
	mark := completion
	for i := range e.res.Evictions {
		ev := &e.res.Evictions[i]
		if ev.CleanDrop {
			e.emitEviction(EvictClean, now, ev.LPNs)
			continue
		}
		// Emitted before the flush: a batch the device degrades on is
		// still a batch the policy evicted (its pages stay un-finalized
		// in the fate table, exactly as the pre-engine replay counted).
		e.emitEviction(EvictRequest, now, ev.LPNs)
		flushAt := now
		if len(ev.PaddingReads) > 0 {
			padDone, err := e.dev.ReadPages(now, ev.PaddingReads)
			if err != nil {
				return 0, 0, fmt.Errorf("sim: %s padding: %w", e.src.Name(), err)
			}
			flushAt = padDone
		}
		var bt ftl.BatchTiming
		var err error
		switch {
		case ev.BlockBound:
			bt, err = e.dev.FlushBlockBound(flushAt, ev.LPNs)
		case ev.HasChannelHint:
			bt, err = e.dev.FlushOnChannel(flushAt, ev.LPNs, ev.Channel)
		default:
			bt, err = e.dev.FlushStriped(flushAt, ev.LPNs)
		}
		if err != nil {
			if e.degrade(err) {
				e.stopped = true
				return completion, 0, nil
			}
			return 0, 0, fmt.Errorf("sim: %s flush: %w", e.src.Name(), err)
		}
		// The request waits until the victims' frames are free (their
		// transfers finish); the programs continue on the dies and delay
		// later operations through the timeline.
		if bt.Transferred > completion {
			completion = bt.Transferred
		}
	}
	e.resEv.Blame.Ns[BlameEvict] += completion - mark

	// Bypassed large-write pages stream straight to flash; the request
	// blocks on their transfers like an eviction flush.
	mark = completion
	if len(e.res.Bypass) > 0 {
		bt, err := e.dev.FlushStriped(now, e.res.Bypass)
		if err != nil {
			if e.degrade(err) {
				e.stopped = true
				return completion, 0, nil
			}
			return 0, 0, fmt.Errorf("sim: %s bypass: %w", e.src.Name(), err)
		}
		if bt.Transferred > completion {
			completion = bt.Transferred
		}
	}
	e.resEv.Blame.Ns[BlameBypass] += completion - mark

	// Read misses fetch from flash.
	mark = completion
	if len(e.res.ReadMisses) > 0 {
		done, err := e.dev.ReadPages(now, e.res.ReadMisses)
		if err != nil {
			return 0, 0, fmt.Errorf("sim: %s read: %w", e.src.Name(), err)
		}
		if done > completion {
			completion = done
		}
	}
	e.resEv.Blame.Ns[BlameRead] += completion - mark

	// Background prefetches load the device but never block the
	// triggering request. Readahead past the end of the logical space is
	// clipped (the policy cannot know the device size).
	prefetched := 0
	if len(e.res.Prefetches) > 0 {
		pf := e.res.Prefetches[:0]
		for _, lpn := range e.res.Prefetches {
			if lpn < e.logical {
				pf = append(pf, lpn)
			}
		}
		if len(pf) > 0 {
			if _, err := e.dev.ReadPages(now, pf); err != nil {
				return 0, 0, fmt.Errorf("sim: %s prefetch: %w", e.src.Name(), err)
			}
			prefetched = len(pf)
		}
	}
	return completion, prefetched, nil
}
