package replay

import (
	"sort"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// This file is the replay's measurement plane: sim.Observer
// implementations that fold engine events into Metrics. The engine
// simulates, these observers measure — RunSharded picks which to attach
// based on Options. All of them are allocation-free per event so the
// zero-alloc steady state of the hot path survives the instrumentation.

// coreObserver accumulates the always-on metrics: hit/miss counts,
// response summaries and histogram, eviction-batch histogram and flush
// counters, node gauges, and the DRAM page traffic behind DRAMEnergyUJ.
type coreObserver struct {
	m         *Metrics
	nodeSum   float64
	dramPages int64
}

func (c *coreObserver) OnRequest(*sim.Engine, *sim.RequestEvent) {}

func (c *coreObserver) OnEviction(_ *sim.Engine, ev *sim.EvictionEvent) {
	n := int64(len(ev.LPNs))
	if ev.Kind == sim.EvictClean {
		c.m.CleanDrops += n
		return
	}
	c.m.EvictionBatch.Observe(len(ev.LPNs))
	c.m.FlushedPages += n
	switch ev.Kind {
	case sim.EvictIdle:
		c.m.IdleFlushedPages += n
	case sim.EvictDestage:
		c.m.DestagedPages += n
	}
}

func (c *coreObserver) OnResult(_ *sim.Engine, ev *sim.ResultEvent) {
	m, req, res := c.m, ev.Req, ev.Res
	c.dramPages += int64(res.Hits + res.Inserted)
	m.BypassedPages += int64(len(res.Bypass))
	m.PrefetchedPages += int64(ev.Prefetched)
	if req.Warm {
		m.PageHits += int64(res.Hits)
		m.PageMisses += int64(res.Misses)
		if req.Write {
			m.WritePageHits += int64(res.Hits)
		} else {
			m.ReadPageHits += int64(res.Hits)
		}
		ns := ev.Completion - req.Issue
		m.ResponseHist.Observe(ns)
		resp := float64(ns)
		m.Response.Observe(resp)
		if req.Write {
			m.WriteResponse.Observe(resp)
		} else {
			m.ReadResponse.Observe(resp)
		}
	}
	if ev.NodeCount > m.MaxNodes {
		m.MaxNodes = ev.NodeCount
	}
	c.nodeSum += float64(ev.NodeCount)
	m.Requests = ev.Processed
}

func (c *coreObserver) OnDone(_ *sim.Engine, ev *sim.DoneEvent) {
	m := c.m
	if m.Requests > 0 {
		m.MeanNodes = c.nodeSum / float64(m.Requests)
	}
	m.Degraded = ev.Degraded
	m.DegradedAtRequest = ev.DegradedAtRequest
	m.IdleGCRuns = ev.IdleGCRuns
}

// pageFate tracks one resident page for the Fig. 2/3 statistics.
type pageFate struct {
	insertReqPages int32 // size (pages) of the write request that inserted it
	large          bool
	hit            bool
}

// fateObserver runs the Fig. 2/3 shadow model: a map of resident pages
// keyed by LPN, updated on every request (before the cache sees it — the
// model is policy-independent) and closed out on every eviction. The
// shadow model can diverge from the policy by at most the pages a request
// evicts of itself (requests larger than the whole buffer), which the
// experiments never produce.
type fateObserver struct {
	m     *Metrics
	fates map[int64]pageFate
}

// OnRequest updates the per-page bookkeeping. A page found in the fate map
// was resident when the request arrived, so touching it is a hit
// attributed to the size of the write request that inserted it (Fig. 2
// keys both CDFs by inserting-request size); a written page not in the map
// is a fresh insertion.
func (f *fateObserver) OnRequest(_ *sim.Engine, ev *sim.RequestEvent) {
	m := f.m
	large := ev.Pages > m.SmallThresholdPages
	lpn := ev.LPN
	for i := 0; i < ev.Pages; i++ {
		if pf, ok := f.fates[lpn]; ok {
			if !pf.hit {
				pf.hit = true
				f.fates[lpn] = pf
			}
			m.HitBySize.Observe(int(pf.insertReqPages))
		} else if ev.Write {
			f.fates[lpn] = pageFate{insertReqPages: int32(ev.Pages), large: large}
			m.InsertBySize.Observe(ev.Pages)
		}
		lpn++
	}
}

// OnEviction closes the lifetime of evicted pages, feeding Fig. 3. Every
// kind counts: clean drops and idle/destage flushes end a residency just
// like request-path evictions.
func (f *fateObserver) OnEviction(_ *sim.Engine, ev *sim.EvictionEvent) {
	m := f.m
	for _, lpn := range ev.LPNs {
		pf, ok := f.fates[lpn]
		if !ok {
			continue
		}
		if pf.large {
			m.LargeInserted++
			if pf.hit {
				m.LargeHitBeforeEviction++
			}
		}
		delete(f.fates, lpn)
	}
}

func (f *fateObserver) OnResult(*sim.Engine, *sim.ResultEvent) {}

// OnDone counts pages still resident at the end: they never got evicted;
// their fates count too.
func (f *fateObserver) OnDone(*sim.Engine, *sim.DoneEvent) {
	m := f.m
	for _, pf := range f.fates {
		if pf.large {
			m.LargeInserted++
			if pf.hit {
				m.LargeHitBeforeEviction++
			}
		}
	}
}

// tenantObserver attributes warm hits and responses to the tenant owning
// the request's first page (Options.TenantBoundaries).
type tenantObserver struct {
	m *Metrics
}

func (t *tenantObserver) tenantOf(page int64) *TenantMetrics {
	// Binary search over the sorted boundaries: tenants are contiguous
	// ranges, so the owner is the first tenant whose LastPage exceeds the
	// page. O(log tenants) per result instead of a linear scan.
	tenants := t.m.Tenants
	i := sort.Search(len(tenants), func(i int) bool { return page < tenants[i].LastPage })
	if i == len(tenants) {
		return nil
	}
	return &tenants[i]
}

func (t *tenantObserver) OnRequest(*sim.Engine, *sim.RequestEvent)   {}
func (t *tenantObserver) OnEviction(*sim.Engine, *sim.EvictionEvent) {}

func (t *tenantObserver) OnResult(_ *sim.Engine, ev *sim.ResultEvent) {
	if !ev.Req.Warm {
		return
	}
	tm := t.tenantOf(ev.Req.LPN)
	if tm == nil {
		return
	}
	tm.PageHits += int64(ev.Res.Hits)
	tm.PageMisses += int64(ev.Res.Misses)
	tm.Response.Observe(float64(ev.Completion - ev.Req.Issue))
}

func (t *tenantObserver) OnDone(*sim.Engine, *sim.DoneEvent) {}

// occupancyObserver samples each internal list's page count every
// SeriesInterval requests (Fig. 13). The sharded engine captures each
// shard policy's occupancy sample at every result (cache.OccupancySampler
// policies only), and this observer sums the latest sample of every shard
// into the global list series.
type occupancyObserver struct {
	sim.NopObserver
	slots    []*metrics.Series
	perShard [][]int // latest sample per shard, indexed by list slot
}

// newOccupancyObserver returns nil when the policy does not expose
// sampled occupancy.
func newOccupancyObserver(m *Metrics, pols []cache.Policy, interval int64) *occupancyObserver {
	sampler, ok := pols[0].(cache.OccupancySampler)
	if !ok {
		return nil
	}
	names := sampler.OccupancyNames()
	m.ListSeries = make(map[string]*metrics.Series)
	o := &occupancyObserver{
		slots:    make([]*metrics.Series, len(names)),
		perShard: make([][]int, len(pols)),
	}
	for i, name := range names {
		s := metrics.NewSeries(interval)
		m.ListSeries[name] = s
		o.slots[i] = s
	}
	for k := range o.perShard {
		o.perShard[k] = make([]int, len(names))
	}
	return o
}

// OnShardResult records the producing shard's fresh sample and ticks the
// series with the cross-shard sums, exactly once per result.
func (o *occupancyObserver) OnShardResult(shard int, occ []int, ev *sim.ResultEvent) {
	if len(occ) == len(o.perShard[shard]) {
		copy(o.perShard[shard], occ)
	}
	for s, slot := range o.slots {
		sum := 0
		for k := range o.perShard {
			sum += o.perShard[k][s]
		}
		slot.Tick(int64(ev.Processed), float64(sum))
	}
}
