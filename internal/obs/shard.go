package obs

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// ShardSet is the per-shard instrument subset a sharded run exposes next
// to the global catalog: enough to see each partition's load, hit ratio,
// occupancy and back-pressure without the cost of mirroring the full
// catalog N times. Instrument names carry an ssdsim_shard<k>_ prefix (the
// registry is label-free by design, so the shard index lives in the name).
type ShardSet struct {
	Requests     *Counter
	PageHits     *Counter
	PageMisses   *Counter
	HitRatio     *FGauge
	Occupancy    *Gauge
	Capacity     *Gauge
	FlushedPages *Counter
	ReqLatency   *metrics.LogHist
	FlashWrites  *Counter
	BPStalls     *Counter
	BPStallNs    *Counter
}

// ShardObservers registers a ShardSet per shard and returns the attachment
// hook for replay.ShardSpec.ShardObservers / sim.ShardConfig.ShardObservers.
// Each returned observer runs on its shard's goroutine and writes only its
// own set (instruments are atomic, so scrapes race safely with updates).
//
// Call it once per Telemetry — the shard instruments register immediately,
// and a second registration of the same names panics, like any duplicate.
// On a nil Telemetry the hook returns no observers, so wiring stays
// unconditional. Shard engines run with warmth rewritten downstream, so
// unlike the global catalog the per-shard hit counters include the warmup
// window.
func (t *Telemetry) ShardObservers(shards int) func(shard int, eng *sim.Engine) []sim.Observer {
	if t == nil {
		return func(int, *sim.Engine) []sim.Observer { return nil }
	}
	sets := make([]*ShardSet, shards)
	t.Shards = sets
	r := t.reg
	for k := 0; k < shards; k++ {
		p := fmt.Sprintf("ssdsim_shard%d_", k)
		sets[k] = &ShardSet{
			Requests:     r.Counter(p+"requests_total", "Requests this shard processed (includes warmup)."),
			PageHits:     r.Counter(p+"page_hits_total", "Page hits in this shard's cache partition."),
			PageMisses:   r.Counter(p+"page_misses_total", "Page misses in this shard's cache partition."),
			HitRatio:     r.FGauge(p+"hit_ratio", "Cumulative page hit ratio of this shard (0..1)."),
			Occupancy:    r.Gauge(p+"cache_occupancy_pages", "Pages resident in this shard's partition."),
			Capacity:     r.Gauge(p+"cache_capacity_pages", "This shard's policy capacity (full capacity under SHARED)."),
			FlushedPages: r.Counter(p+"flushed_pages_total", "Dirty pages this shard evicted to its device."),
			ReqLatency:   r.Hist(p+"request_latency_ns", "Per-request response time on this shard, simulated ns."),
			FlashWrites:  r.Counter(p+"flash_writes_total", "Pages programmed on this shard's device for host flushes."),
			BPStalls:     r.Counter(p+"backpressure_stalls_total", "Admissions this shard's device stalled on destage backlog."),
			BPStallNs:    r.Counter(p+"backpressure_stall_ns_total", "Total simulated ns spent in back-pressure stalls."),
		}
	}
	return func(shard int, eng *sim.Engine) []sim.Observer {
		return []sim.Observer{&shardObserver{set: sets[shard]}}
	}
}

// shardObserver folds one shard engine's events into its ShardSet. It runs
// on the shard goroutine with a real (non-nil) engine, so it can read the
// shard's policy and device directly — the shard-local mirror of
// engineObserver, throttled the same way.
type shardObserver struct {
	set  *ShardSet
	tick uint64
}

var _ sim.Observer = (*shardObserver)(nil)

// OnRequest implements sim.Observer.
func (o *shardObserver) OnRequest(e *sim.Engine, ev *sim.RequestEvent) {}

// OnEviction implements sim.Observer.
func (o *shardObserver) OnEviction(e *sim.Engine, ev *sim.EvictionEvent) {
	if ev.Kind != sim.EvictClean {
		o.set.FlushedPages.Add(int64(len(ev.LPNs)))
	}
}

// OnResult implements sim.Observer.
func (o *shardObserver) OnResult(e *sim.Engine, ev *sim.ResultEvent) {
	s := o.set
	s.Requests.Set(int64(ev.Processed))
	s.PageHits.Add(int64(ev.Res.Hits))
	s.PageMisses.Add(int64(ev.Res.Misses))
	s.ReqLatency.Observe(ev.Completion - ev.Req.Issue)
	o.tick++
	if o.tick%syncEvery == 0 {
		o.refresh(e)
	}
}

// refresh recomputes the shard's derived gauges and device mirrors.
func (o *shardObserver) refresh(e *sim.Engine) {
	s := o.set
	if hits, misses := s.PageHits.Value(), s.PageMisses.Value(); hits+misses > 0 {
		s.HitRatio.Set(float64(hits) / float64(hits+misses))
	}
	if pol := e.Policy(); pol != nil {
		s.Occupancy.Set(int64(pol.Len()))
		s.Capacity.Set(int64(pol.CapacityPages()))
	}
	if dev := e.Device(); dev != nil {
		s.FlashWrites.Set(dev.Counters().FlashWrites)
		stalls, stallNs := dev.BackPressureStalls()
		s.BPStalls.Set(stalls)
		s.BPStallNs.Set(stallNs)
	}
}

// OnDone implements sim.Observer: one exact final pass.
func (o *shardObserver) OnDone(e *sim.Engine, ev *sim.DoneEvent) {
	o.set.Requests.Set(int64(ev.Processed))
	o.refresh(e)
}
