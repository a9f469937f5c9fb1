package sim

import "repro/internal/cache"

// RequestEvent describes one trace request at the moment it is issued to
// the cache stage: after the streaming source produced it, after its page
// span was computed, and after the closed-loop window (if any) delayed it.
type RequestEvent struct {
	// Index is the request's 0-based ordinal in the source, counting
	// every source entry (including zero-page requests the engine skips).
	Index int
	// Arrival is the trace arrival time in nanoseconds.
	Arrival int64
	// Issue is the time the request actually enters the cache: Arrival,
	// or later when a closed-loop queue slot had to free up.
	Issue int64
	// Write is true for writes.
	Write bool
	// LPN is the first logical page and Pages the span length.
	LPN   int64
	Pages int
	// Warm is false while the request falls inside the configured warmup
	// window; observers exclude cold requests from steady-state metrics.
	Warm bool
}

// ResultEvent describes one fully dispatched request: the cache decision
// plus the device completion time.
type ResultEvent struct {
	// Req is the request this result belongs to.
	Req *RequestEvent
	// Res is the cache's decision. Its slices alias policy-owned buffers
	// and are only valid during the observer call.
	Res *cache.Result
	// Completion is the absolute time the request completed: cache time,
	// plus eviction transfers, bypass transfers and read-miss fetches.
	Completion int64
	// Prefetched counts background readahead pages actually issued to the
	// device (after clipping to the logical space).
	Prefetched int
	// Processed is the number of requests fully processed so far,
	// including this one.
	Processed int
	// NodeCount is the policy's list-node population after this request.
	NodeCount int
	// Blame is the request's exact per-cause latency partition; its
	// entries sum to Completion minus the request's arrival Time.
	Blame Blame
}

// EvictionKind says which engine stage flushed (or dropped) a batch.
type EvictionKind uint8

const (
	// EvictRequest is a batch flushed to make room on the request path.
	EvictRequest EvictionKind = iota
	// EvictClean is a batch dropped without a flash write (clean victims).
	EvictClean
	// EvictIdle is a batch proactively flushed during an idle window.
	EvictIdle
	// EvictDestage is a batch drained by the periodic destager.
	EvictDestage
	// EvictQuota is a batch drained because the cache exceeded its soft
	// quota (Config.SoftQuotaPages — SHARED-mode sharding pushback).
	EvictQuota

	// evictionKinds counts the kinds above; per-kind tables size by it.
	evictionKinds
)

// String names the stage for logs and trace spans.
func (k EvictionKind) String() string {
	switch k {
	case EvictRequest:
		return "request"
	case EvictClean:
		return "clean"
	case EvictIdle:
		return "idle"
	case EvictDestage:
		return "destage"
	case EvictQuota:
		return "quota"
	}
	return "unknown"
}

// EvictionEvent describes one victim batch leaving the cache. For
// EvictClean nothing was written to flash.
type EvictionEvent struct {
	// Kind is the engine stage that produced the batch.
	Kind EvictionKind
	// Time is the simulated time the batch was handed to the device.
	Time int64
	// LPNs are the victim pages. The slice aliases a policy-owned buffer
	// and is only valid during the observer call.
	LPNs []int64
	// Transferred and Durable carry the batch's device timing when it is
	// known at emission: idle flushes and destage drains report when their
	// frames freed and when the data became durable. Request-path batches
	// are emitted before the flush (fate accounting needs the pre-flush
	// order) and clean drops never touch flash — both leave these zero.
	Transferred, Durable int64
	// ScanCost is the victim-selection work the policy performed since the
	// previous emitted batch (heap entries sifted/skipped in indexed mode,
	// nodes walked in the linear reference mode), taken as the delta of the
	// policy's cache.VictimScanReporter counter. When one Access triggers
	// several batches the whole Access's selection work lands on the first;
	// 0 for policies that do not report scan work.
	ScanCost int64
}

// DoneEvent summarizes a finished run.
type DoneEvent struct {
	// Processed is the number of requests fully processed.
	Processed int
	// HasRequests is true when the source yielded at least one request;
	// FirstArrival/LastArrival then hold the source's time span (the whole
	// source, even when an observer stopped the replay early — open-loop
	// utilization is defined over the trace horizon).
	HasRequests               bool
	FirstArrival, LastArrival int64
	// Degraded is true when the device entered read-only mode and the
	// engine stopped; DegradedAtRequest is the processed count at that
	// point.
	Degraded          bool
	DegradedAtRequest int
	// Stopped is true when an observer ended the run early via Stop.
	Stopped bool
	// IdleGCRuns counts background-GC block collections triggered during
	// idle windows (Config.IdleGC).
	IdleGCRuns int64
}

// Observer receives engine events. Implementations accumulate metrics —
// the engine itself measures nothing beyond what it needs to simulate.
// Hot-path rules: events (and the slices inside them) are reused across
// calls, so observers must copy anything they retain, and must not
// allocate per event if the zero-alloc replay guarantee matters to them.
type Observer interface {
	// OnRequest fires once per non-empty request, before the cache sees
	// it. The idle/destage stage may fire OnEviction calls before it.
	OnRequest(e *Engine, ev *RequestEvent)
	// OnEviction fires once per victim batch, in dispatch order.
	OnEviction(e *Engine, ev *EvictionEvent)
	// OnResult fires once per request after its completion time is known.
	OnResult(e *Engine, ev *ResultEvent)
	// OnDone fires once, after the source is exhausted or the run stopped.
	OnDone(e *Engine, ev *DoneEvent)
}

// NopObserver is an Observer that ignores every event; embed it to
// implement only the hooks you need.
type NopObserver struct{}

func (NopObserver) OnRequest(*Engine, *RequestEvent)   {}
func (NopObserver) OnEviction(*Engine, *EvictionEvent) {}
func (NopObserver) OnResult(*Engine, *ResultEvent)     {}
func (NopObserver) OnDone(*Engine, *DoneEvent)         {}
