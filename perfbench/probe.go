package main

import (
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Sampling of the traced run. A request is timed when
// splitmix64(id) % timeRate == 0 and its span tree is written to the span
// file when splitmix64(id) % keepRate == 0 (a subset, since keepRate is a
// multiple of timeRate). Both are pure functions of the request id, so a
// seed times and keeps the same requests on every run. A clock read costs
// tens of nanoseconds, so the unsampled path reads no clock.
const (
	timeRate = 16
	keepRate = 1024
)

func timed(id int64) bool { return splitmix64(uint64(id))%timeRate == 0 }
func kept(id int64) bool  { return splitmix64(uint64(id))%keepRate == 0 }

// sampling is a run's fixed sampling plan over request ids 0..n-1: the
// record slot of each timed id (-1 for untimed ids) and, on a sharded
// replay, the ids routed to each shard in order (routed[k][j] is the id
// of shard k's j-th source entry, which the shard's engine reports as its
// local request index). Built once per run, outside the timed regions.
type sampling struct {
	slot   []int32
	nTimed int
	routed [][]int64
}

func newSampling(n int, route func(id int) int, shards int) *sampling {
	s := &sampling{slot: make([]int32, n)}
	for id := range s.slot {
		s.slot[id] = -1
		if timed(int64(id)) {
			s.slot[id] = int32(s.nTimed)
			s.nTimed++
		}
	}
	if shards > 1 {
		s.routed = make([][]int64, shards)
		for id := 0; id < n; id++ {
			k := route(id)
			s.routed[k] = append(s.routed[k], int64(id))
		}
	}
	return s
}

// probe records host-time spans around the calls the benchmark makes into
// each layer of a replay: the trace source's Next (trace), the policy's
// Access (core or cache), the rest of the engine step up to the
// benchmark's OnResult (sim dispatch: flush, read, GC, observer fan-out)
// and, on a sharded replay, the hand-off from a shard's OnResult to the
// merged stream (sim merge). It sees the program only through a wrapping
// source, wrapping policies and observers.
//
// Each record field is written by exactly one goroutine — the source's
// fields by the splitter, the step's by the owning shard, merged by the
// merger — and read only after the replay call has returned.
type probe struct {
	base   time.Time
	plan   *sampling
	recs   []reqRec
	nextID int64 // source-side id counter
	shards []*shardProbe
}

// reqRec is one timed request's timestamps, in ns since probe.base.
type reqRec struct {
	id                 int64
	shard              int
	nextStart, nextEnd int64 // source Next
	stepStart          int64 // shard OnRequest: the engine step begins
	accStart, accEnd   int64 // policy Access
	result             int64 // shard OnResult (the benchmark's observer)
	merged             int64 // merged-stream OnResult (sharded only)
}

// shardProbe is one engine's goroutine-confined probe state.
type shardProbe struct {
	sim.NopObserver
	p     *probe
	shard int
	slot  int32 // record slot of the request inside the step, -1 if untimed

	requests              int64 // engine steps
	evictions, evictPages int64 // batches and pages in Access results

	// Self-sampled Access timing, for engines without a benchmark
	// observer to open the step (the service's shard workers).
	selfSample bool
	calls      int64
	accessNs   int64
	accessN    int64
}

func newProbe(plan *sampling, shards int) *probe {
	clockCost() // calibrate before any timed region
	p := &probe{base: time.Now(), plan: plan}
	if plan != nil {
		p.recs = make([]reqRec, plan.nTimed)
	}
	for k := 0; k < shards; k++ {
		p.shards = append(p.shards, &shardProbe{p: p, shard: k, slot: -1})
	}
	return p
}

func (p *probe) now() int64 { return int64(time.Since(p.base)) }

// clockCost is the calibrated cost of one probe clock read: a span
// bracketed by two reads over-measures by about one read.
var clockCost = sync.OnceValue(func() int64 {
	p := &probe{base: time.Now()}
	best := int64(1 << 62)
	for round := 0; round < 5; round++ {
		const n = 20000
		t0 := p.now()
		for i := 0; i < n; i++ {
			p.now()
		}
		best = min(best, (p.now()-t0)/n)
	}
	return best
})

// source wraps the replay's trace source.
func (p *probe) source(src trace.Source) trace.Source { return &probeSource{p: p, src: src} }

type probeSource struct {
	p   *probe
	src trace.Source
}

func (s *probeSource) Name() string { return s.src.Name() }
func (s *probeSource) Err() error   { return s.src.Err() }

func (s *probeSource) Next() (trace.Request, bool) {
	p := s.p
	id := p.nextID
	if id >= int64(len(p.plan.slot)) || p.plan.slot[id] < 0 {
		req, ok := s.src.Next()
		if ok {
			p.nextID++
		}
		return req, ok
	}
	t0 := p.now()
	req, ok := s.src.Next()
	t1 := p.now()
	if ok {
		r := &p.recs[p.plan.slot[id]]
		r.id, r.nextStart, r.nextEnd = id, t0, t1
		p.nextID++
	}
	return req, ok
}

// OnRequest opens an engine step: it resolves the request's id and, for
// a timed one, stamps the step's start.
func (sp *shardProbe) OnRequest(_ *sim.Engine, ev *sim.RequestEvent) {
	sp.requests++
	id := int64(ev.Index)
	if r := sp.p.plan.routed; r != nil {
		id = r[sp.shard][ev.Index]
	}
	sp.slot = sp.p.plan.slot[id]
	if sp.slot >= 0 {
		rec := &sp.p.recs[sp.slot]
		rec.shard, rec.stepStart = sp.shard, sp.p.now()
	}
}

// OnResult closes the step. The benchmark's observer runs after the
// replay's own, so the dispatch span covers their fan-out too.
func (sp *shardProbe) OnResult(*sim.Engine, *sim.ResultEvent) {
	if sp.slot >= 0 {
		sp.p.recs[sp.slot].result = sp.p.now()
		sp.slot = -1
	}
}

// access runs one policy Access on the shard's goroutine, timing it when
// the step is timed, and counts the eviction batches it returns.
func (sp *shardProbe) access(req cache.Request, inner func(cache.Request) cache.Result) cache.Result {
	timedNow := sp.slot >= 0
	if sp.selfSample {
		sp.calls++
		timedNow = timed(sp.calls)
	}
	var res cache.Result
	if !timedNow {
		res = inner(req)
	} else {
		t0 := sp.p.now()
		res = inner(req)
		t1 := sp.p.now()
		if sp.slot >= 0 {
			rec := &sp.p.recs[sp.slot]
			rec.accStart, rec.accEnd = t0, t1
		}
		sp.accessNs += t1 - t0 - clockCost()
		sp.accessN++
	}
	sp.evictions += int64(len(res.Evictions))
	for i := range res.Evictions {
		sp.evictPages += int64(len(res.Evictions[i].LPNs))
	}
	return res
}

// mergedObserver stamps each timed request's delivery on the merged
// stream of a sharded replay (sim.merge_wait).
type mergedObserver struct {
	sim.NopObserver
	p *probe
}

func (o *mergedObserver) OnResult(_ *sim.Engine, ev *sim.ResultEvent) {
	if slot := o.p.plan.slot[ev.Req.Index]; slot >= 0 {
		o.p.recs[slot].merged = o.p.now()
	}
}

// timedReqBlock is the traced run's Req-block. It embeds the policy, so
// the engine's optional-interface checks (idle eviction, occupancy,
// victim-scan cost) see the same methods, and overrides only Access.
type timedReqBlock struct {
	*core.ReqBlock
	sp *shardProbe
}

func (w *timedReqBlock) Access(req cache.Request) cache.Result {
	return w.sp.access(req, w.ReqBlock.Access)
}

// timedFAB is the same wrapper around FAB.
type timedFAB struct {
	*cache.FAB
	sp *shardProbe
}

func (w *timedFAB) Access(req cache.Request) cache.Result {
	return w.sp.access(req, w.FAB.Access)
}

// layerTimes are per-request means over the timed requests, with the
// probe's own clock reads taken out.
type layerTimes struct {
	nextNs, accessNs, dispatchNs, mergeWaitNs float64
	busyShare                                 []float64 // per shard, of the replay call's wall time
	timedRequests                             int
}

// summarize folds the records of a finished replay whose call took wallNs.
func (p *probe) summarize(wallNs int64) layerTimes {
	c := clockCost()
	var lt layerTimes
	var nNext, nStep, nMerge int
	var sumNext, sumAcc, sumDisp, sumMerge int64
	busy := make([]int64, len(p.shards))
	steps := make([]int64, len(p.shards))
	for i := range p.recs {
		r := &p.recs[i]
		if r.nextEnd != 0 {
			sumNext += r.nextEnd - r.nextStart - c
			nNext++
		}
		if r.result == 0 {
			continue
		}
		sumAcc += r.accEnd - r.accStart - c
		sumDisp += r.result - r.accEnd - c
		nStep++
		// The step brackets three of the probe's clock reads.
		busy[r.shard] += r.result - r.stepStart - 3*c
		steps[r.shard]++
		if r.merged != 0 {
			sumMerge += max(0, r.merged-r.result)
			nMerge++
		}
	}
	lt.nextNs = ratio(float64(sumNext), float64(nNext))
	lt.accessNs = ratio(float64(sumAcc), float64(nStep))
	lt.dispatchNs = ratio(float64(sumDisp), float64(nStep))
	lt.mergeWaitNs = ratio(float64(sumMerge), float64(nMerge))
	lt.timedRequests = nStep
	for k, sp := range p.shards {
		// Scale the timed steps' busy time up to all of the shard's steps.
		est := ratio(float64(busy[k]), float64(steps[k])) * float64(sp.requests)
		lt.busyShare = append(lt.busyShare, ratio(est, float64(wallNs)))
	}
	return lt
}

// spans turns the kept requests' records into span trees. Thread ids:
// 1 = the source (the engine itself for one engine, the splitter when
// sharded), 2 = the merger, 10+k = shard k's engine.
func (p *probe) spans(policyLayer string) []span {
	sharded := p.plan.routed != nil
	var out []span
	for i := range p.recs {
		r := &p.recs[i]
		if !kept(r.id) || r.nextEnd == 0 || r.result == 0 || (sharded && r.merged == 0) {
			continue
		}
		stepTid, end, rootTid := 1, r.result, 1
		if sharded {
			stepTid, end, rootTid = 10+r.shard, max(r.result, r.merged), 2
		}
		out = append(out,
			span{name: "request", cat: "request", tid: rootTid, id: r.id, start: r.nextStart, end: end},
			span{name: "trace.next", cat: "host", tid: 1, id: r.id, parent: "request", start: r.nextStart, end: r.nextEnd},
			span{name: "sim.step", cat: "host", tid: stepTid, id: r.id, parent: "request", start: r.stepStart, end: r.result},
			span{name: policyLayer, cat: "host", tid: stepTid, id: r.id, parent: "sim.step", start: r.accStart, end: r.accEnd},
			span{name: "sim.dispatch", cat: "host", tid: stepTid, id: r.id, parent: "sim.step", start: r.accEnd, end: r.result},
		)
		if sharded {
			out = append(out, span{name: "sim.merge_wait", cat: "host", tid: 2, id: r.id, parent: "request", start: r.result, end: end})
		}
	}
	return out
}
