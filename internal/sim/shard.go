// Sharded replay: the multi-core unlock. The caller's goroutine routes
// each trace request to one of N shard engines by tenant (explicit
// boundaries or an LBA-derived hash) and merges their events back into
// trace order; every shard runs the ordinary single-threaded Engine on its
// own goroutine with its own policy instance and device.
//
// The router pulls the source through a read-ahead (trace.ReadAhead),
// routes at most routeAhead ordinals per shard past the merge point, and
// logs each ordinal's shard in a ring. A relay stands on both sides of
// every shard engine. As the engine's source it yields the requests the
// router queued for the shard. As its first observer it writes one compact
// record per pulled request: the request's eviction batches, its request
// and result when the engine got that far, and where OnRequest and
// OnResult fell among the batches. The merger walks the ring in order,
// takes each ordinal's record from its shard, sets Index and Warm from the
// ordinal and replays the record to the registered observers: exactly the
// calls, in exactly the order, a single engine would have made.
// Determinism therefore never depends on goroutine scheduling: record
// contents come from the deterministic shard simulations and the merge
// order is the routing log.
//
// Flow control, and why it cannot deadlock:
//
//   - Shard input queues are unbounded, so the router never waits on a
//     shard's input; the routing window bounds what they hold.
//   - A relay ships its batch of records at a request boundary: when the
//     batch is full, or just before its shard blocks waiting for input.
//   - The router waits on shard k's output only for the record at the
//     merge point, and only after pushing every routed request. Shard k
//     then holds that request and flushes before it next blocks, so the
//     record always arrives.
//   - On a shard error the router closes every queue and drains every
//     output until each one closes.
//
// One shard has nothing to route or merge: it runs its engine directly
// over the read-ahead, on the caller's goroutine, and the merged-stream
// observers attach to that live engine.
package sim

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cache"
	"repro/internal/ftl"
	"repro/internal/prof"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// SharingMode selects how the sharded engine divides the global buffer
// capacity among shards (MQSim's sharing modes).
type SharingMode uint8

const (
	// SharingShared gives every shard the full global capacity with a
	// per-shard soft quota of capacity/N: a shard may borrow past its
	// slice, and the engine destages the overflow after each request
	// (Config.SoftQuotaPages). The drain goes only as far as the policy's
	// idle evictor will (cache.IdleEvictor), so the global footprint can
	// exceed the capacity.
	SharingShared SharingMode = iota
	// SharingEqual hard-partitions the capacity into N equal slices
	// (MQSim's EQUAL_PARTITIONING).
	SharingEqual
)

// String names the mode as the CLI flags spell it.
func (m SharingMode) String() string {
	if m == SharingEqual {
		return "equal"
	}
	return "shared"
}

// ParseSharing parses a CLI sharing-mode name.
func ParseSharing(s string) (SharingMode, error) {
	switch s {
	case "shared":
		return SharingShared, nil
	case "equal":
		return SharingEqual, nil
	}
	return SharingShared, fmt.Errorf("sim: unknown sharing mode %q (want shared or equal)", s)
}

// ShardQuota returns one shard's policy capacity and soft quota under a
// sharing mode. EQUAL returns a hard capacity/N slice (remainder pages go
// to the low shards) and no quota; SHARED returns the full capacity plus a
// capacity/N soft quota.
func ShardQuota(mode SharingMode, totalPages, shards, shard int) (capacityPages, softQuota int) {
	share := totalPages / shards
	if shard < totalPages%shards {
		share++
	}
	if mode == SharingEqual {
		return share, 0
	}
	return totalPages, share
}

// ShardConfig configures a sharded run.
type ShardConfig struct {
	// Shards is the partition count, >= 1.
	Shards int
	// Sharing selects SHARED or EQUAL_PARTITIONING capacity division.
	Sharing SharingMode
	// TotalCapacityPages is the global buffer capacity divided per Sharing.
	TotalCapacityPages int
	// NewPolicy builds shard k's policy instance with its capacity slice.
	NewPolicy func(shard, capacityPages int) cache.Policy
	// NewDevice builds shard k's device. Each shard owns a full device
	// (the Device type is single-threaded); this models allocating each
	// partition its own backend slice.
	NewDevice func(shard int) (*ssd.Device, error)
	// TenantBoundaries, when set, routes requests to shards by tenant:
	// tenant t owns pages [boundary_{t-1}, boundary_t) and maps to shard
	// t mod Shards. Empty boundaries fall back to hashing the request's
	// TenantRegionPages-sized region, spreading unlabeled traces evenly.
	TenantBoundaries []int64
	// TenantRegionPages sizes the hash regions used without explicit
	// boundaries. Zero defaults to 4096 pages (16 MiB at 4 KiB pages).
	TenantRegionPages int64
	// BackPressureDepth bounds each shard device's destage backlog
	// (ssd.Device.SetBackPressure). Zero disables.
	BackPressureDepth int
	// Engine is the per-shard engine config. WarmupRequests counts global
	// source ordinals (the relay rewrites warmth), SoftQuotaPages is
	// overwritten per the sharing mode, and a positive GCBudgetNs enables
	// the GC scheduler on every shard device that lacks it.
	Engine Config
	// StopAfterRequests, when positive, cuts the run after that many
	// non-empty requests — the crash harness's global power-loss point.
	// The router stops routing at that ordinal; one shard stops its
	// engine at that processed count.
	StopAfterRequests int
	// CaptureOccupancy samples each OccupancySampler policy's list sizes
	// at every result and carries the sample to ShardAware observers.
	CaptureOccupancy bool
	// ShardObservers, when set, returns extra observers attached directly
	// to shard k's engine (e.g. per-shard telemetry). They run on the
	// shard's goroutine and see the shard-local event stream.
	ShardObservers func(shard int, eng *Engine) []Observer
}

// ShardAware is implemented by merged-stream observers that want each
// result's shard provenance and (when ShardConfig.CaptureOccupancy is set)
// the policy's occupancy sample at that result. It is called right after
// every merged-stream observer's OnResult for that result. The occupancy
// slice is only valid during the call.
type ShardAware interface {
	OnShardResult(shard int, occupancy []int, ev *ResultEvent)
}

const (
	defaultTenantRegionPages = 4096
	routeAhead               = 8192 // ordinals routed past the merge point, per shard
	reqBatchLen              = 256  // requests per router→shard batch
	recBatchLen              = 256  // records per shard→merger batch
	// outChanCap record batches may wait per shard, so a shard can run a
	// few batches ahead of the merger without blocking on it.
	outChanCap = 8
)

// splitmix64 is the finalizer of Vigna's SplitMix64 generator — a cheap,
// well-distributed 64-bit mix for region→shard routing.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RouteLPN maps a request's first page to a shard using the same routing
// the sharded replay applies: explicit tenant boundaries when present
// (tenant t maps to shard t mod shards), otherwise the splitmix64 hash of
// the LPN's regionPages-sized address region. Exported so front-ends (the service
// layer) route exactly like a sharded replay would; regionPages <= 0
// selects the default region size.
func RouteLPN(lpn int64, boundaries []int64, regionPages int64, shards int) int {
	if len(boundaries) > 0 {
		t := sort.Search(len(boundaries), func(i int) bool { return lpn < boundaries[i] })
		return t % shards
	}
	if regionPages <= 0 {
		regionPages = defaultTenantRegionPages
	}
	return int(splitmix64(uint64(lpn/regionPages)) % uint64(shards))
}

// shardQueue carries request batches from the router to one shard: an
// unbounded FIFO, so the router never waits on it, plus the free list
// drained batches return on for the router to refill.
type shardQueue struct {
	mu      sync.Mutex
	cond    sync.Cond
	batches [][]trace.Request
	head    int
	closed  bool
	free    [][]trace.Request
}

func newShardQueue() *shardQueue {
	q := &shardQueue{}
	q.cond.L = &q.mu
	return q
}

func (q *shardQueue) push(b []trace.Request) {
	q.mu.Lock()
	q.batches = append(q.batches, b)
	q.mu.Unlock()
	q.cond.Signal()
}

func (q *shardQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// pop returns the next batch. Without wait it reports false at once when
// none is queued; with wait it blocks until one is, and reports false
// only when the queue is closed and empty.
func (q *shardQueue) pop(wait bool) ([]trace.Request, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for wait && q.head == len(q.batches) && !q.closed {
		q.cond.Wait()
	}
	if q.head == len(q.batches) {
		return nil, false
	}
	b := q.batches[q.head]
	q.batches[q.head] = nil
	q.head++
	if q.head == len(q.batches) {
		q.batches, q.head = q.batches[:0], 0
	}
	return b, true
}

// recycle returns a drained batch to the free list.
func (q *shardQueue) recycle(b []trace.Request) {
	q.mu.Lock()
	q.free = append(q.free, b[:0])
	q.mu.Unlock()
}

// batch returns an empty batch for the router to fill.
func (q *shardQueue) batch() []trace.Request {
	q.mu.Lock()
	defer q.mu.Unlock()
	if n := len(q.free); n > 0 {
		b := q.free[n-1]
		q.free = q.free[:n-1]
		return b
	}
	return make([]trace.Request, 0, reqBatchLen)
}

// shardRec is one request a shard pulled, as the merger replays it. Its
// eviction batches are recBatch.evs[ev0:ev1], in emission order; OnRequest
// fired before reqAt of them and OnResult before resAt (-1 when the engine
// did not get that far: a zero-page request, the horizon drain of a
// stopped engine, a request the engine failed on).
//
// Records are recycled with their batch and written in place: the relay
// sets only the markers when it opens one, and req, res, ev and occ hold
// a previous request's values until the engine's events overwrite them.
// The merger reads them only where the markers say they were written.
type shardRec struct {
	ev0, ev1     int32
	reqAt, resAt int32

	req RequestEvent // the merger sets Index and Warm from the ordinal
	res cache.Result // slices carved from the batch's arenas
	// ev holds the shard engine's Completion, Prefetched, NodeCount and
	// Blame; the merger points it at req and res and sets Processed and
	// the global NodeCount before handing it to the observers.
	ev  ResultEvent
	occ []int
}

// recBatch is one shard→merger message. Its arenas back the records' and
// eviction events' slices, so shipping a recycled batch allocates nothing.
type recBatch struct {
	recs []shardRec
	evs  []EvictionEvent
	lpns []int64
	cevs []cache.Eviction
	occ  []int
}

func (b *recBatch) reset() {
	b.recs = b.recs[:0]
	b.evs = b.evs[:0]
	b.lpns = b.lpns[:0]
	b.cevs = b.cevs[:0]
	b.occ = b.occ[:0]
}

// carve appends src to the LPN arena and returns the capacity-clipped
// window holding the copy. Later arena growth may reallocate the backing
// array, but the window keeps pointing at the old one — the same trick
// cache.ResultBuffers uses.
func (b *recBatch) carve(src []int64) []int64 {
	if len(src) == 0 {
		return nil
	}
	mark := len(b.lpns)
	b.lpns = append(b.lpns, src...)
	return b.lpns[mark:len(b.lpns):len(b.lpns)]
}

// relay is one shard's end of the pipeline. It is the shard engine's
// Source, yielding the requests the router queued for the shard, and its
// first Observer, recording each pulled request's events into one
// shardRec.
type relay struct {
	name string
	q    *shardQueue
	in   []trace.Request // batch being drained
	pos  int

	out  chan *recBatch
	free chan *recBatch
	b    *recBatch // batch being filled
	open bool      // b's last record still collects events

	sampler cache.OccupancySampler // nil unless capturing occupancy
}

func (r *relay) Name() string { return r.name }
func (r *relay) Err() error   { return nil }

// Next closes the previous request's record, then yields the next queued
// request and opens its record. Before it waits for input it ships the
// records it holds.
func (r *relay) Next() (trace.Request, bool) {
	r.endRecord()
	if r.pos == len(r.in) {
		if r.in != nil {
			r.q.recycle(r.in)
		}
		b, ok := r.q.pop(false)
		if !ok {
			r.flush()
			b, ok = r.q.pop(true)
		}
		r.in, r.pos = b, 0
		if !ok {
			return trace.Request{}, false
		}
	}
	req := r.in[r.pos]
	r.pos++
	if r.b == nil {
		select {
		case r.b = <-r.free:
		default:
			r.b = &recBatch{recs: make([]shardRec, 0, recBatchLen)}
		}
	}
	// The batch ships once it holds recBatchLen records, so the next slot
	// is within its capacity.
	recs := r.b.recs[:len(r.b.recs)+1]
	rec := &recs[len(recs)-1]
	rec.ev0, rec.reqAt, rec.resAt = int32(len(r.b.evs)), -1, -1
	r.b.recs = recs
	r.open = true
	return req, true
}

// endRecord closes the open record, shipping the batch once it is full.
func (r *relay) endRecord() {
	if !r.open {
		return
	}
	r.open = false
	r.b.recs[len(r.b.recs)-1].ev1 = int32(len(r.b.evs))
	if len(r.b.recs) >= recBatchLen {
		r.flush()
	}
}

// flush ships the closed records to the merger.
func (r *relay) flush() {
	if r.b != nil && len(r.b.recs) > 0 {
		r.out <- r.b
		r.b = nil
	}
}

// rec returns the open record.
func (r *relay) rec() *shardRec { return &r.b.recs[len(r.b.recs)-1] }

func (r *relay) OnRequest(_ *Engine, ev *RequestEvent) {
	rec := r.rec()
	rec.req = *ev
	rec.reqAt = int32(len(r.b.evs)) - rec.ev0
}

func (r *relay) OnEviction(_ *Engine, ev *EvictionEvent) {
	cp := *ev
	cp.LPNs = r.b.carve(ev.LPNs)
	r.b.evs = append(r.b.evs, cp)
}

func (r *relay) OnResult(_ *Engine, ev *ResultEvent) {
	b, rec := r.b, r.rec()
	rec.resAt = int32(len(b.evs)) - rec.ev0
	rec.ev.Completion, rec.ev.Prefetched = ev.Completion, ev.Prefetched
	rec.ev.NodeCount, rec.ev.Blame = ev.NodeCount, ev.Blame
	// Deep-copy the result: its slices alias policy buffers that the next
	// Access overwrites, and the merger reads them on another goroutine.
	rec.res = *ev.Res
	res := &rec.res
	res.ReadMisses = b.carve(res.ReadMisses)
	res.Prefetches = b.carve(res.Prefetches)
	res.Bypass = b.carve(res.Bypass)
	if len(res.Evictions) > 0 {
		mark := len(b.cevs)
		for _, e := range res.Evictions {
			e.LPNs = b.carve(e.LPNs)
			e.PaddingReads = b.carve(e.PaddingReads)
			b.cevs = append(b.cevs, e)
		}
		res.Evictions = b.cevs[mark:len(b.cevs):len(b.cevs)]
	}
	rec.occ = nil
	if r.sampler != nil {
		mark := len(b.occ)
		b.occ = r.sampler.AppendOccupancy(b.occ)
		rec.occ = b.occ[mark:len(b.occ):len(b.occ)]
	}
}

func (r *relay) OnDone(*Engine, *DoneEvent) {}

// ShardedEngine replays one source across N shard engines and re-merges
// their event streams deterministically. Build with NewSharded, register
// merged-stream observers with Observe, then call Run once.
type ShardedEngine struct {
	src trace.Source
	cfg ShardConfig
	obs []Observer
	// direct runs the single shard's engine itself instead of the
	// router/relay/merger pipeline.
	direct bool

	pols    []cache.Policy
	devs    []*ssd.Device
	engines []*Engine
	relays  []*relay

	stoppedFeed bool // StopAfterRequests tripped
}

// NewSharded validates the config and builds every shard's policy, device
// and engine (accessible via ShardPolicies/ShardDevices before Run — the
// replay layer needs them to assemble observers).
func NewSharded(src trace.Source, cfg ShardConfig) (*ShardedEngine, error) {
	return newSharded(src, cfg, false)
}

// newSharded is NewSharded with the pipeline choice exposed: pipeline
// forces the router/relay/merger even for one shard, so tests can hold
// the direct path to the pipeline's event stream.
func newSharded(src trace.Source, cfg ShardConfig, pipeline bool) (*ShardedEngine, error) {
	built, err := BuildShards(cfg)
	if err != nil {
		return nil, err
	}
	s := &ShardedEngine{
		src: src, cfg: cfg,
		direct:  cfg.Shards == 1 && !pipeline,
		pols:    make([]cache.Policy, cfg.Shards),
		devs:    make([]*ssd.Device, cfg.Shards),
		engines: make([]*Engine, cfg.Shards),
		relays:  make([]*relay, cfg.Shards),
	}
	for k, sh := range built {
		s.pols[k], s.devs[k] = sh.Policy, sh.Device
		if s.direct {
			// runDirect binds the read-ahead source and the merged-stream
			// observers.
			s.engines[k] = New(nil, sh.Policy, sh.Device, sh.Engine)
		} else {
			// Warmth is an ordinal property of the global stream; the
			// merger sets it, so the shard engine itself never marks cold.
			ecfg := sh.Engine
			ecfg.WarmupRequests = 0
			r := &relay{
				name: src.Name(),
				q:    newShardQueue(),
				out:  make(chan *recBatch, outChanCap),
				// Room for every batch in circulation: a full out
				// channel, the one the merger reads, the one being filled.
				free: make(chan *recBatch, outChanCap+2),
			}
			if cfg.CaptureOccupancy {
				r.sampler, _ = sh.Policy.(cache.OccupancySampler)
			}
			s.engines[k], s.relays[k] = New(r, sh.Policy, sh.Device, ecfg), r
			s.engines[k].Observe(r)
		}
		if cfg.ShardObservers != nil {
			s.engines[k].Observe(cfg.ShardObservers(k, s.engines[k])...)
		}
	}
	return s, nil
}

// Shard is one built partition of a sharded topology.
type Shard struct {
	Policy cache.Policy
	Device *ssd.Device
	// CapacityPages is the capacity Policy was built with: the whole
	// buffer under SHARED, an equal slice under EQUAL.
	CapacityPages int
	// Engine is ShardConfig.Engine with the shard's soft quota set.
	Engine Config
}

// BuildShards validates a shard topology and builds every shard's policy
// and device, in shard order. It applies back-pressure, enables the GC
// scheduler on devices that lack it when Engine.GCBudgetNs is positive,
// and sets the SHARED soft quota (none for a single shard, which holds the
// whole capacity). It is the one shard build behind both the sharded
// replay (NewSharded) and the service front-end (serve.New).
func BuildShards(cfg ShardConfig) ([]Shard, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	shards := make([]Shard, cfg.Shards)
	for k := range shards {
		capPages, quota := ShardQuota(cfg.Sharing, cfg.TotalCapacityPages, cfg.Shards, k)
		pol := cfg.NewPolicy(k, capPages)
		if pol == nil {
			return nil, fmt.Errorf("sim: NewPolicy returned nil for shard %d", k)
		}
		dev, err := cfg.NewDevice(k)
		if err != nil {
			return nil, fmt.Errorf("sim: shard %d device: %w", k, err)
		}
		// Routing sends every LPN to one shard's device, so the shards must
		// agree on the logical space the front-ends bound requests by.
		if k > 0 && dev.LogicalPages() != shards[0].Device.LogicalPages() {
			return nil, fmt.Errorf("sim: shard %d logical size %d differs from shard 0's %d",
				k, dev.LogicalPages(), shards[0].Device.LogicalPages())
		}
		if cfg.BackPressureDepth > 0 {
			dev.SetBackPressure(cfg.BackPressureDepth)
		}
		if cfg.Engine.GCBudgetNs > 0 && !dev.GCSchedEnabled() {
			dev.EnableGCScheduler(ftl.GCSchedConfig{})
		}
		ecfg := cfg.Engine
		// A lone shard holds the whole capacity: no quota to enforce.
		ecfg.SoftQuotaPages = 0
		if cfg.Sharing == SharingShared && cfg.Shards > 1 {
			ecfg.SoftQuotaPages = quota
		}
		shards[k] = Shard{Policy: pol, Device: dev, CapacityPages: capPages, Engine: ecfg}
	}
	return shards, nil
}

// validate rejects a topology BuildShards cannot build, or one that would
// silently misbehave.
func (cfg *ShardConfig) validate() error {
	switch {
	case cfg.Shards < 1:
		return fmt.Errorf("sim: shards %d, need >= 1", cfg.Shards)
	case cfg.NewPolicy == nil || cfg.NewDevice == nil:
		return fmt.Errorf("sim: sharded config needs NewPolicy and NewDevice")
	case cfg.TotalCapacityPages < cfg.Shards:
		return fmt.Errorf("sim: capacity %d pages across %d shards leaves empty shards",
			cfg.TotalCapacityPages, cfg.Shards)
	case cfg.BackPressureDepth < 0:
		return fmt.Errorf("sim: back-pressure depth %d is negative (0 disables)", cfg.BackPressureDepth)
	case cfg.Engine.GCBudgetNs < 0:
		return fmt.Errorf("sim: GC budget %d ns is negative (0 disables)", cfg.Engine.GCBudgetNs)
	case cfg.StopAfterRequests < 0:
		return fmt.Errorf("sim: stop-after %d is negative (0 disables)", cfg.StopAfterRequests)
	case cfg.TenantRegionPages < 0:
		return fmt.Errorf("sim: tenant region %d pages is negative (0 selects the default)", cfg.TenantRegionPages)
	// Region hashing and explicit boundaries are competing routing schemes;
	// configuring both means one of them is silently dead.
	case cfg.TenantRegionPages > 0 && len(cfg.TenantBoundaries) > 0:
		return fmt.Errorf("sim: tenant region pages (%d) conflicts with explicit tenant boundaries (%d): boundaries route, regions would be ignored",
			cfg.TenantRegionPages, len(cfg.TenantBoundaries))
	}
	// RouteLPN binary-searches the boundaries, so unsorted or negative
	// values would misroute instead of failing.
	b := cfg.TenantBoundaries
	if !sort.SliceIsSorted(b, func(i, j int) bool { return b[i] < b[j] }) {
		return fmt.Errorf("sim: tenant boundaries must be sorted")
	}
	if len(b) > 0 && b[0] < 0 {
		return fmt.Errorf("sim: negative tenant boundary %d", b[0])
	}
	return nil
}

// Observe registers merged-stream observers; they receive the merged
// events in registration order. With two or more shards they get a nil
// *Engine (no single engine's live state is race-free to read from the
// merger); with one they are attached to the live engine, ahead of the
// shard observers.
func (s *ShardedEngine) Observe(obs ...Observer) { s.obs = append(s.obs, obs...) }

// ShardPolicies returns each shard's policy instance. Only read them
// before Run or after it returns.
func (s *ShardedEngine) ShardPolicies() []cache.Policy { return s.pols }

// ShardDevices returns each shard's device (same access rule).
func (s *ShardedEngine) ShardDevices() []*ssd.Device { return s.devs }

// StoppedFeeding reports whether StopAfterRequests cut the stream.
func (s *ShardedEngine) StoppedFeeding() bool { return s.stoppedFeed }

// shardOf routes a request's first page to a shard.
func (s *ShardedEngine) shardOf(lpn int64) int {
	return RouteLPN(lpn, s.cfg.TenantBoundaries, s.cfg.TenantRegionPages, s.cfg.Shards)
}

// Run replays the source across the shards and returns the merged run
// summary. It may be called once per ShardedEngine. The source is read
// ahead on a filler goroutine, joined before Run returns.
func (s *ShardedEngine) Run() (done DoneEvent, err error) {
	ahead := trace.NewReadAhead(s.src)
	defer ahead.Close()
	if s.direct {
		prof.Do("engine", 0, func() { done, err = s.runDirect(ahead) })
	} else {
		prof.Do("router", -1, func() { done, err = s.runPipeline(ahead) })
	}
	return done, err
}

// runPipeline runs two or more shards: each shard's engine on its own
// goroutine, the router and merger on the caller's.
func (s *ShardedEngine) runPipeline(src trace.Source) (DoneEvent, error) {
	n := s.cfg.Shards
	errs := make([]error, n)
	dones := make([]DoneEvent, n)
	var wg sync.WaitGroup
	for k, r := range s.relays {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prof.Do("engine", k, func() { dones[k], errs[k] = s.engines[k].Run() })
			r.endRecord()
			r.flush()
			close(r.out)
		}()
	}

	done, complete := s.routeAndMerge(src)
	if !complete {
		// A shard's records ended early: its engine failed. Stop the rest.
		for _, r := range s.relays {
			r.q.close()
		}
		for _, r := range s.relays {
			for range r.out {
			}
		}
	}
	wg.Wait()

	// Deterministic error priority: shards by index, then the source.
	for k, err := range errs {
		if err != nil {
			return DoneEvent{}, fmt.Errorf("sim: shard %d: %w", k, err)
		}
	}
	if err := src.Err(); err != nil {
		return DoneEvent{}, err
	}
	done.Stopped = s.stoppedFeed
	for _, d := range dones {
		done.IdleGCRuns += d.IdleGCRuns
		if d.Stopped {
			done.Stopped = true
		}
		if d.Degraded {
			done.Degraded = true
			// Shard-local processed count at degradation; under sharding
			// this is a per-shard ordinal, so report the largest.
			if d.DegradedAtRequest > done.DegradedAtRequest {
				done.DegradedAtRequest = d.DegradedAtRequest
			}
		}
	}
	for _, o := range s.obs {
		o.OnDone(nil, &done)
	}
	return done, nil
}

// routeAndMerge is the caller goroutine's loop. It routes the source up to
// routeAhead ordinals per shard past the merge point, logging each
// ordinal's shard in a ring, and merges by walking that ring. complete is
// false when a shard's record stream closed before its last ordinal: its
// engine failed.
func (s *ShardedEngine) routeAndMerge(src trace.Source) (done DoneEvent, complete bool) {
	pageSize := s.devs[0].PageSize()
	ring := make([]int32, len(s.relays)*routeAhead)
	pending := make([][]trace.Request, len(s.relays))
	ship := func(k int) {
		if len(pending[k]) > 0 {
			s.relays[k].q.push(pending[k])
			pending[k] = nil
		}
	}
	feeding, fed := true, 0
	stopFeeding := func() {
		feeding = false
		for k, r := range s.relays {
			ship(k)
			r.q.close()
		}
	}
	m := newMerger(s)
	var routed, merged, in, out int // ordinals routed and merged; their ring slots
	for {
		for feeding && routed-merged < len(ring) {
			req, ok := src.Next()
			if !ok {
				stopFeeding()
				break
			}
			if !done.HasRequests {
				done.HasRequests = true
				done.FirstArrival = req.Time
			}
			done.LastArrival = req.Time
			first, pages := req.PageSpan(pageSize)
			k := s.shardOf(first)
			if pending[k] == nil {
				pending[k] = s.relays[k].q.batch()
			}
			if pending[k] = append(pending[k], req); len(pending[k]) == reqBatchLen {
				ship(k)
			}
			ring[in] = int32(k)
			if in++; in == len(ring) {
				in = 0
			}
			routed++
			if pages > 0 {
				fed++
				if stop := s.cfg.StopAfterRequests; stop > 0 && fed >= stop {
					// Global power-loss point: deliver everything routed
					// so far, this request included, and cut the stream.
					s.stoppedFeed = true
					stopFeeding()
				}
			}
		}
		if merged == routed {
			break
		}
		k := int(ring[out])
		if !m.ready(k) {
			// Push every routed request before waiting: shard k then has
			// the request it owes and flushes before it next blocks.
			for j := range pending {
				ship(j)
			}
			if !m.wait(k) {
				return done, false
			}
		}
		m.dispatch(k, merged)
		if out++; out == len(ring) {
			out = 0
		}
		merged++
	}
	// Horizon drain: a cut stream still spans the whole source (open-loop
	// utilization covers the trace duration).
	for {
		req, ok := src.Next()
		if !ok {
			break
		}
		done.LastArrival = req.Time
	}
	done.Processed = m.processed
	return done, true
}

// merger replays the shards' records to the merged-stream observers.
type merger struct {
	s      *ShardedEngine
	heads  []mergeHead
	aware  []ShardAware
	warmup int
	// Per-shard node counts fold into one global population, as a single
	// engine over one policy would have reported.
	nodes     []int
	nodeSum   int
	processed int
}

// mergeHead is the merger's place in one shard's record stream.
type mergeHead struct {
	b *recBatch
	i int
}

func newMerger(s *ShardedEngine) *merger {
	m := &merger{
		s:      s,
		heads:  make([]mergeHead, len(s.relays)),
		warmup: s.cfg.Engine.WarmupRequests,
		nodes:  make([]int, len(s.relays)),
	}
	for _, o := range s.obs {
		if sa, ok := o.(ShardAware); ok {
			m.aware = append(m.aware, sa)
		}
	}
	return m
}

// ready reports whether shard k's next record is at hand, taking a
// shipped batch if one is waiting.
func (m *merger) ready(k int) bool {
	if h := &m.heads[k]; h.b != nil && h.i < len(h.b.recs) {
		return true
	}
	select {
	case b, ok := <-m.s.relays[k].out:
		if ok {
			m.take(k, b)
		}
		return ok
	default:
		return false
	}
}

// wait blocks for shard k's next batch. It reports false when the shard's
// stream closed instead.
func (m *merger) wait(k int) bool {
	b, ok := <-m.s.relays[k].out
	if ok {
		m.take(k, b)
	}
	return ok
}

// take makes b shard k's current batch and recycles the finished one.
func (m *merger) take(k int, b *recBatch) {
	h := &m.heads[k]
	if h.b != nil {
		h.b.reset()
		select {
		case m.s.relays[k].free <- h.b:
		default:
		}
	}
	h.b, h.i = b, 0
}

// dispatch replays shard k's next record, the request at ordinal ord.
func (m *merger) dispatch(k, ord int) {
	h := &m.heads[k]
	rec := &h.b.recs[h.i]
	h.i++
	evs := h.b.evs[rec.ev0:rec.ev1]
	for i := int32(0); ; i++ {
		if i == rec.reqAt {
			rec.req.Index, rec.req.Warm = ord, ord >= m.warmup
			for _, o := range m.s.obs {
				o.OnRequest(nil, &rec.req)
			}
		}
		if i == rec.resAt {
			m.result(k, rec)
		}
		if int(i) == len(evs) {
			return
		}
		for _, o := range m.s.obs {
			o.OnEviction(nil, &evs[i])
		}
	}
}

// result completes the record's result event and replays it.
func (m *merger) result(k int, rec *shardRec) {
	ev := &rec.ev
	m.processed++
	m.nodeSum += ev.NodeCount - m.nodes[k]
	m.nodes[k] = ev.NodeCount
	ev.Req, ev.Res = &rec.req, &rec.res
	ev.Processed, ev.NodeCount = m.processed, m.nodeSum
	for _, o := range m.s.obs {
		o.OnResult(nil, ev)
	}
	for _, sa := range m.aware {
		sa.OnShardResult(k, rec.occ, ev)
	}
}

// runDirect runs a one-shard replay on the caller's goroutine: the shard's
// engine pulls the source itself, and the merged-stream observers see the
// live engine, followed by the ShardAware and stop-after duties the merger
// and router would otherwise perform.
func (s *ShardedEngine) runDirect(src trace.Source) (DoneEvent, error) {
	eng := s.engines[0]
	eng.src = src
	tail := &directTail{s: s}
	for _, o := range s.obs {
		if sa, ok := o.(ShardAware); ok {
			tail.aware = append(tail.aware, sa)
		}
	}
	if s.cfg.CaptureOccupancy {
		tail.sampler, _ = s.pols[0].(cache.OccupancySampler)
	}
	shardObs := eng.obs
	eng.obs = append(append(append([]Observer(nil), s.obs...), tail), shardObs...)
	return eng.Run()
}

// directTail follows the merged-stream observers on a one-shard engine:
// it hands each result to the ShardAware observers with the policy's
// occupancy sample, and stops the engine at StopAfterRequests.
type directTail struct {
	NopObserver
	s       *ShardedEngine
	aware   []ShardAware
	sampler cache.OccupancySampler // nil unless capturing occupancy
	occ     []int
}

func (t *directTail) OnResult(e *Engine, ev *ResultEvent) {
	if t.sampler != nil {
		t.occ = t.sampler.AppendOccupancy(t.occ[:0])
	}
	for _, sa := range t.aware {
		sa.OnShardResult(0, t.occ, ev)
	}
	if stop := t.s.cfg.StopAfterRequests; stop > 0 && ev.Processed >= stop {
		t.s.stoppedFeed = true
		e.Stop()
	}
}
