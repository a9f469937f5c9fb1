package sim

import (
	"strings"
	"testing"

	"repro/internal/cache"
)

// The watchdog is exercised end-to-end (attached to real replays across
// policies and configurations) in internal/replay's invariants test; here
// each violation class is synthesized directly so we know the observer
// actually catches what it claims to.

func TestInvariantObserverCleanRun(t *testing.T) {
	var o InvariantObserver
	req := RequestEvent{Index: 0, Arrival: 10, Issue: 10, Write: true, LPN: 0, Pages: 2}
	o.OnRequest(nil, &req)
	o.OnEviction(nil, &EvictionEvent{Kind: EvictRequest, Time: 10, LPNs: []int64{7}})
	o.OnResult(nil, &ResultEvent{Req: &req, Res: &cache.Result{Hits: 0, Misses: 2}, Completion: 12, Processed: 1})
	req2 := RequestEvent{Index: 1, Arrival: 20, Issue: 25, Write: false, LPN: 4, Pages: 1}
	o.OnRequest(nil, &req2)
	o.OnResult(nil, &ResultEvent{Req: &req2, Res: &cache.Result{Hits: 1}, Completion: 25, Processed: 2})
	o.OnDone(nil, &DoneEvent{Processed: 2})
	if err := o.Err(); err != nil {
		t.Fatalf("clean event stream flagged: %v", err)
	}
}

func TestInvariantObserverViolations(t *testing.T) {
	base := func() (*InvariantObserver, *RequestEvent) {
		o := &InvariantObserver{}
		req := &RequestEvent{Index: 0, Arrival: 100, Issue: 100, Write: true, LPN: 0, Pages: 1}
		o.OnRequest(nil, req)
		return o, req
	}
	cases := []struct {
		name string
		want string
		run  func(o *InvariantObserver, req *RequestEvent)
	}{
		{"arrival goes backwards", "before previous arrival", func(o *InvariantObserver, _ *RequestEvent) {
			o.OnRequest(nil, &RequestEvent{Index: 1, Arrival: 50, Issue: 50, Pages: 1})
		}},
		{"issue before arrival", "before its arrival", func(o *InvariantObserver, _ *RequestEvent) {
			o.OnRequest(nil, &RequestEvent{Index: 1, Arrival: 200, Issue: 150, Pages: 1})
		}},
		{"completion before issue", "before its issue", func(o *InvariantObserver, req *RequestEvent) {
			o.OnResult(nil, &ResultEvent{Req: req, Res: &cache.Result{Misses: 1}, Completion: 90, Processed: 1})
		}},
		{"processed counter skips", "processed counter", func(o *InvariantObserver, req *RequestEvent) {
			o.OnResult(nil, &ResultEvent{Req: req, Res: &cache.Result{Misses: 1}, Completion: 100, Processed: 2})
		}},
		{"hits plus misses off", "hits+misses", func(o *InvariantObserver, req *RequestEvent) {
			o.OnResult(nil, &ResultEvent{Req: req, Res: &cache.Result{Hits: 2}, Completion: 100, Processed: 1})
		}},
		{"empty eviction", "empty", func(o *InvariantObserver, _ *RequestEvent) {
			o.OnEviction(nil, &EvictionEvent{Kind: EvictRequest, Time: 100})
		}},
		{"destage time backwards", "before previous one", func(o *InvariantObserver, _ *RequestEvent) {
			o.OnEviction(nil, &EvictionEvent{Kind: EvictDestage, Time: 100, LPNs: []int64{1}})
			o.OnEviction(nil, &EvictionEvent{Kind: EvictDestage, Time: 90, LPNs: []int64{2}})
		}},
		{"quota drain off its completion", "not at the completion 120", func(o *InvariantObserver, req *RequestEvent) {
			o.OnResult(nil, &ResultEvent{Req: req, Res: &cache.Result{Misses: 1}, Completion: 120, Processed: 1})
			o.OnEviction(nil, &EvictionEvent{Kind: EvictQuota, Time: 119, LPNs: []int64{1}})
		}},
		{"quota drain before any result", "not at the completion", func(o *InvariantObserver, _ *RequestEvent) {
			o.OnEviction(nil, &EvictionEvent{Kind: EvictQuota, Time: 0, LPNs: []int64{1}})
		}},
		{"empty quota drain", "empty quota", func(o *InvariantObserver, req *RequestEvent) {
			o.OnResult(nil, &ResultEvent{Req: req, Res: &cache.Result{Misses: 1}, Completion: 120, Processed: 1})
			o.OnEviction(nil, &EvictionEvent{Kind: EvictQuota, Time: 120})
		}},
		{"quota drain durable before transferred", "durable at 130 before transfer", func(o *InvariantObserver, req *RequestEvent) {
			o.OnResult(nil, &ResultEvent{Req: req, Res: &cache.Result{Misses: 1}, Completion: 120, Processed: 1})
			o.OnEviction(nil, &EvictionEvent{Kind: EvictQuota, Time: 120, LPNs: []int64{1}, Transferred: 140, Durable: 130})
		}},
		{"unknown eviction kind", "unknown eviction kind", func(o *InvariantObserver, _ *RequestEvent) {
			o.OnEviction(nil, &EvictionEvent{Kind: evictionKinds, Time: 100, LPNs: []int64{1}})
		}},
		{"done count mismatch", "saw 1 results", func(o *InvariantObserver, req *RequestEvent) {
			o.OnResult(nil, &ResultEvent{Req: req, Res: &cache.Result{Misses: 1}, Completion: 100, Processed: 1})
			o.OnDone(nil, &DoneEvent{Processed: 5})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, req := base()
			tc.run(o, req)
			err := o.Err()
			if err == nil {
				t.Fatalf("violation not caught")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("wrong violation: got %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestInvariantObserverKeepsFirstError pins that later violations cannot
// mask the original one.
func TestInvariantObserverKeepsFirstError(t *testing.T) {
	o := &InvariantObserver{}
	o.OnRequest(nil, &RequestEvent{Index: 0, Arrival: -5, Issue: -5, Pages: 1})
	first := o.Err()
	if first == nil {
		t.Fatal("negative arrival not caught")
	}
	o.OnEviction(nil, &EvictionEvent{Kind: EvictRequest, Time: 0})
	if o.Err() != first {
		t.Fatalf("first error overwritten: %v", o.Err())
	}
	// Idle flushes are exempt from dispatch monotonicity by design.
	o2 := &InvariantObserver{}
	o2.OnEviction(nil, &EvictionEvent{Kind: EvictIdle, Time: 100, LPNs: []int64{1}})
	o2.OnEviction(nil, &EvictionEvent{Kind: EvictIdle, Time: 50, LPNs: []int64{2}})
	if err := o2.Err(); err != nil {
		t.Fatalf("idle flushes wrongly held to monotonic dispatch: %v", err)
	}
}

// TestInvariantObserverQuotaDrainsFollowCompletions feeds quota drains
// the way the engine emits them: each right after the result of the
// request that overfilled the cache, at its completion time, which may
// lie before an earlier request's completion.
func TestInvariantObserverQuotaDrainsFollowCompletions(t *testing.T) {
	o := &InvariantObserver{}
	for i, completion := range []int64{500, 300} {
		req := &RequestEvent{Index: i, Arrival: int64(i) * 100, Issue: int64(i) * 100, Write: true, Pages: 1}
		o.OnRequest(nil, req)
		o.OnResult(nil, &ResultEvent{Req: req, Res: &cache.Result{Misses: 1}, Completion: completion, Processed: i + 1})
		for b := 0; b < 2; b++ {
			o.OnEviction(nil, &EvictionEvent{Kind: EvictQuota, Time: completion, LPNs: []int64{int64(b)}, Transferred: completion + 10, Durable: completion + 20})
		}
	}
	if err := o.Err(); err != nil {
		t.Fatalf("well-formed quota drains flagged: %v", err)
	}
}
