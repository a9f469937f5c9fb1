package obs

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/sim"
)

// TraceExport writes sampled requests as Chrome trace-event JSON — the
// format Perfetto (ui.perfetto.dev) and chrome://tracing load directly.
// Each sampled request becomes a complete ("X") slice on its shard's
// track, with nested child slices per nonzero blame cause laid out
// chronologically, then one thread-scoped instant ("i") per victim batch
// flushed on its path (cat "evict") and per policy list transition it
// caused (cat "list"). Opening the file shows where each slow request's
// time went and why the policy kept or evicted what it did.
//
// Sampling is a pure function of (seed, request index): the splitmix64
// finalizer over seed^index, kept when divisible by the rate. The same
// seed and rate produce byte-identical files across runs — diffable and
// assertable in tests. Timestamps are simulated nanoseconds rendered as
// fractional microseconds (the trace-event unit).
//
// A request is open from its OnRequest to its OnResult: the victim
// batches and list transitions that arrive in between are its own. Idle,
// destage and quota batches outside that window belong to no request.
//
// On a single engine every request lands on track "shard 0". On the
// sharded merged stream, OnResult sees a nil engine and defers emission to
// OnShardResult (sim.ShardAware), which carries the owning shard. List
// transitions come from the policy itself (SetTransitionSink), so they
// are recorded only on a one-shard run, where the policy runs on the
// goroutine that delivers the events.
//
// The unsampled path is one hash and a few branches, with no allocation.
type TraceExport struct {
	w    *bufio.Writer
	seed uint64
	rate uint64

	sampled bool                   // the open request is in the sample
	await   bool                   // sampled result pending its OnShardResult
	evicts  []evictMark            // the open request's victim batches
	moves   []cache.ListTransition // the open request's list transitions

	named map[int]bool // shard tracks already given a thread_name
	n     int64        // sampled requests emitted
	err   error
}

// evictMark is one victim batch of a sampled request.
type evictMark struct {
	at     int64
	kind   sim.EvictionKind
	pages  int
	lo, hi int64
}

var (
	_ sim.Observer         = (*TraceExport)(nil)
	_ sim.ShardAware       = (*TraceExport)(nil)
	_ cache.TransitionSink = (*TraceExport)(nil)
)

// NewTraceExport builds an exporter writing to w, keeping one request in
// rate (rate <= 0 disables sampling; rate 1 keeps every request). The
// header and process metadata are written immediately.
func NewTraceExport(w io.Writer, rate int, seed uint64) *TraceExport {
	t := &TraceExport{w: bufio.NewWriter(w), seed: seed, named: make(map[int]bool)}
	if rate > 0 {
		t.rate = uint64(rate)
	}
	t.printf(`{"displayTimeUnit":"ns","traceEvents":[` + "\n")
	t.printf(`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"ssdsim"}}`)
	return t
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// high-quality 64-bit mix with no state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Sampled reports whether request index i is in the sample.
func (t *TraceExport) Sampled(i int) bool {
	return t.rate > 0 && splitmix64(t.seed^uint64(i))%t.rate == 0
}

// SampledCount returns how many requests were exported so far.
func (t *TraceExport) SampledCount() int64 { return t.n }

// Err returns the first write error, if any.
func (t *TraceExport) Err() error { return t.err }

// printf appends trace text, latching the first write error.
func (t *TraceExport) printf(format string, args ...any) {
	if _, err := fmt.Fprintf(t.w, format, args...); err != nil && t.err == nil {
		t.err = err
	}
}

// event starts one more event object (the leading ",\n" separator — the
// header already wrote the first event).
func (t *TraceExport) event() { t.printf(",\n") }

// OnRequest implements sim.Observer: decides the sample and opens the
// request (emission happens at OnResult, when the blame partition is
// complete).
func (t *TraceExport) OnRequest(e *sim.Engine, ev *sim.RequestEvent) {
	t.sampled = t.Sampled(ev.Index)
	if t.sampled {
		t.evicts, t.moves = t.evicts[:0], t.moves[:0]
	}
}

// OnEviction implements sim.Observer: records a victim batch dispatched
// while the sampled request is open.
func (t *TraceExport) OnEviction(e *sim.Engine, ev *sim.EvictionEvent) {
	if !t.sampled || len(ev.LPNs) == 0 {
		return
	}
	lo, hi := ev.LPNs[0], ev.LPNs[0]
	for _, lpn := range ev.LPNs[1:] {
		lo, hi = min(lo, lpn), max(hi, lpn)
	}
	t.evicts = append(t.evicts, evictMark{at: ev.Time, kind: ev.Kind, pages: len(ev.LPNs), lo: lo, hi: hi})
}

// OnListTransition implements cache.TransitionSink: records a list move
// the policy reports while the sampled request is open.
func (t *TraceExport) OnListTransition(tr cache.ListTransition) {
	if t.sampled {
		t.moves = append(t.moves, tr)
	}
}

// OnResult implements sim.Observer: closes the sampled request and emits
// its slice tree.
func (t *TraceExport) OnResult(e *sim.Engine, ev *sim.ResultEvent) {
	if !t.sampled {
		return
	}
	t.sampled = false
	if e == nil {
		// Merged sharded stream: the shard arrives in OnShardResult,
		// which the merger calls right after this.
		t.await = true
		return
	}
	t.emit(0, ev)
}

// OnShardResult implements sim.ShardAware: emission point on the merged
// stream, with the owning shard's track.
func (t *TraceExport) OnShardResult(shard int, _ []int, ev *sim.ResultEvent) {
	if !t.await {
		return
	}
	t.await = false
	t.emit(shard, ev)
}

// OnDone implements sim.Observer: flushes buffered events (the JSON
// footer is written by Close, so multi-run attachments stay valid).
func (t *TraceExport) OnDone(e *sim.Engine, ev *sim.DoneEvent) {
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
}

// Close writes the JSON footer and flushes; the file is a complete
// trace-event document afterwards.
func (t *TraceExport) Close() error {
	t.printf("\n]}\n")
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

// emit writes the request's parent slice, one child slice per nonzero
// blame cause, and the request's evict and list instants. The children
// tile [arrival, completion) in phase order — the partition is exact, so
// the layout has no gaps or overlaps. Evict instants sit at their batch's
// dispatch time, list instants at the time the policy ran (arrival plus
// queue and stall), so every instant lies inside the parent slice.
func (t *TraceExport) emit(shard int, ev *sim.ResultEvent) {
	t.n++
	tid := shard + 1
	if !t.named[shard] {
		t.named[shard] = true
		t.event()
		t.printf(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"shard %d"}}`, tid, shard)
	}
	op := "read"
	if ev.Req.Write {
		op = "write"
	}
	req, res := ev.Req, ev.Res
	total := ev.Blame.Total()
	t.event()
	t.printf(`{"name":"req %d %s","cat":"request","ph":"X","pid":1,"tid":%d,"ts":%d.%03d,"dur":%d.%03d,`+
		`"args":{"index":%d,"issue":%d,"warm":%t,"lpn":%d,"pages":%d,"hits":%d,"misses":%d,"inserted":%d,`+
		`"read_miss_pages":%d,"bypass_pages":%d,"prefetched_pages":%d,"nodes":%d,`+
		`"dominant":%q,"gc_overlap_ns":%d,"scan_cost":%d}}`,
		req.Index, op, tid,
		req.Arrival/1000, req.Arrival%1000, total/1000, total%1000,
		req.Index, req.Issue, req.Warm, req.LPN, req.Pages, res.Hits, res.Misses, res.Inserted,
		len(res.ReadMisses), len(res.Bypass), ev.Prefetched, ev.NodeCount,
		ev.Blame.Dominant().String(), ev.Blame.GCPauseNs, ev.Blame.ScanCost)
	start := req.Arrival
	for c := 0; c < sim.NumBlameCauses; c++ {
		dur := ev.Blame.Ns[c]
		if dur <= 0 {
			continue
		}
		t.event()
		t.printf(`{"name":%q,"cat":"blame","ph":"X","pid":1,"tid":%d,"ts":%d.%03d,"dur":%d.%03d,"args":{"index":%d}}`,
			sim.BlameCause(c).String(), tid,
			start/1000, start%1000, dur/1000, dur%1000, req.Index)
		start += dur
	}
	for _, b := range t.evicts {
		t.event()
		t.printf(`{"name":"evict %s","cat":"evict","ph":"i","s":"t","pid":1,"tid":%d,"ts":%d.%03d,`+
			`"args":{"index":%d,"kind":%q,"pages":%d,"lpn_min":%d,"lpn_max":%d}}`,
			b.kind, tid, b.at/1000, b.at%1000, req.Index, b.kind, b.pages, b.lo, b.hi)
	}
	ran := req.Arrival + ev.Blame.Ns[sim.BlameQueue] + ev.Blame.Ns[sim.BlameStall]
	for _, m := range t.moves {
		t.event()
		t.printf(`{"name":"%s to %s","cat":"list","ph":"i","s":"t","pid":1,"tid":%d,"ts":%d.%03d,`+
			`"args":{"index":%d,"lpn":%d,"pages":%d,"from":%q,"to":%q}}`,
			m.From, m.To, tid, ran/1000, ran%1000, req.Index, m.LPN, m.Pages, m.From, m.To)
	}
}
