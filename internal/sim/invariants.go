package sim

import "fmt"

// InvariantObserver is a cross-layer watchdog attachable to any engine
// run (replay.Options.Observers accepts it): it checks the ordering and
// accounting properties every correct run must satisfy, regardless of
// policy, trace or configuration.
//
//   - request arrivals are non-decreasing and never negative;
//   - a request is never issued before it arrives (closed-loop queuing
//     only delays), and never completes before it was issued;
//   - the processed counter increments by exactly one per result;
//   - eviction batches are non-empty and the request, clean-drop and
//     destage stages dispatch them at non-decreasing times (idle flushes
//     are exempt: their dispatch is stamped with device frame-free times,
//     which may step back across idle windows);
//   - quota drains, which run when the request that overfilled the cache
//     completes, are dispatched at the completion time of the result just
//     before them (completions step back, so the non-decreasing rule does
//     not apply to them);
//   - a batch that reports its device timing is durable no earlier than
//     transferred;
//   - the final DoneEvent's processed count matches the results seen.
//
// The first violation is captured and kept (later events are still
// checked but cannot overwrite it); Err returns it. The observer
// allocates only on failure, so it is safe to attach to the zero-alloc
// replay path — including under `go test -race` runs of the full grids.
type InvariantObserver struct {
	NopObserver

	err error

	started        bool
	lastArrival    int64
	lastEviction   [evictionKinds]int64 // per EvictionKind, dispatch-time high-water mark
	haveEviction   [evictionKinds]bool
	lastCompletion int64 // of the latest result, for quota drains
	results        int
	done           bool
}

// fail records the first violation.
func (o *InvariantObserver) fail(format string, args ...any) {
	if o.err == nil {
		o.err = fmt.Errorf("sim invariant: "+format, args...)
	}
}

// Err returns the first violation observed, or nil.
func (o *InvariantObserver) Err() error { return o.err }

// OnRequest implements Observer.
func (o *InvariantObserver) OnRequest(e *Engine, ev *RequestEvent) {
	if ev.Pages < 1 || ev.LPN < 0 {
		o.fail("request %d malformed: lpn %d, %d pages", ev.Index, ev.LPN, ev.Pages)
	}
	if ev.Arrival < 0 {
		o.fail("request %d arrives at negative time %d", ev.Index, ev.Arrival)
	}
	if o.started && ev.Arrival < o.lastArrival {
		o.fail("request %d arrival %d before previous arrival %d", ev.Index, ev.Arrival, o.lastArrival)
	}
	o.started, o.lastArrival = true, ev.Arrival
	if ev.Issue < ev.Arrival {
		o.fail("request %d issued at %d before its arrival %d", ev.Index, ev.Issue, ev.Arrival)
	}
}

// OnEviction implements Observer.
func (o *InvariantObserver) OnEviction(e *Engine, ev *EvictionEvent) {
	if len(ev.LPNs) == 0 {
		o.fail("empty %s eviction batch at %d", ev.Kind, ev.Time)
	}
	k := int(ev.Kind)
	switch {
	case k >= len(o.lastEviction):
		o.fail("unknown eviction kind %d", k)
		return
	case ev.Kind == EvictQuota:
		if o.results == 0 || ev.Time != o.lastCompletion {
			o.fail("quota eviction at %d, not at the completion %d of the result before it", ev.Time, o.lastCompletion)
		}
	case ev.Kind != EvictIdle:
		if o.haveEviction[k] && ev.Time < o.lastEviction[k] {
			o.fail("%s eviction at %d before previous one at %d", ev.Kind, ev.Time, o.lastEviction[k])
		}
		o.haveEviction[k], o.lastEviction[k] = true, ev.Time
	}
	if ev.Durable != 0 && ev.Durable < ev.Transferred {
		o.fail("%s eviction durable at %d before transfer finished at %d", ev.Kind, ev.Durable, ev.Transferred)
	}
}

// OnResult implements Observer.
func (o *InvariantObserver) OnResult(e *Engine, ev *ResultEvent) {
	if ev.Completion < ev.Req.Issue {
		o.fail("request %d completes at %d before its issue %d", ev.Req.Index, ev.Completion, ev.Req.Issue)
	}
	o.lastCompletion = ev.Completion
	o.results++
	if ev.Processed != o.results {
		o.fail("processed counter %d after %d results", ev.Processed, o.results)
	}
	if ev.NodeCount < 0 {
		o.fail("negative node count %d", ev.NodeCount)
	}
	if got, want := ev.Res.Hits+ev.Res.Misses, ev.Req.Pages; got != want {
		o.fail("request %d: hits+misses = %d, %d pages", ev.Req.Index, got, want)
	}
}

// OnDone implements Observer.
func (o *InvariantObserver) OnDone(e *Engine, ev *DoneEvent) {
	if o.done {
		o.fail("OnDone fired twice")
	}
	o.done = true
	if ev.Processed != o.results {
		o.fail("done reports %d processed, saw %d results", ev.Processed, o.results)
	}
}
