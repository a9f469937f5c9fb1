// Sharded replay: the multi-core unlock. A splitter goroutine routes each
// trace request to one of N shard engines by tenant (explicit boundaries
// or an LBA-derived hash); every shard runs the ordinary single-threaded
// Engine on its own goroutine with its own policy instance and device, and
// a relay observer copies the shard's events — tagged with the request's
// global source ordinal — into batches. A single merger then performs a
// deterministic sequence-number min-merge across the shard streams and
// dispatches the merged events to the registered observers in exactly the
// order a single engine would have produced them. Determinism therefore
// never depends on goroutine scheduling: event contents are computed by
// the (deterministic) shard simulations and the merge order is a pure
// function of the ordinals.
//
// Flow-control shape (and why it cannot deadlock): shard input queues are
// unbounded deques with one global soft bound the splitter waits on, and
// every watermarkEvery ordinals the splitter flushes all pending request
// batches and sends each shard a watermark ("no future requests for you
// below this ordinal"). Watermarks travel through the shard's source into
// its event stream, so the merger always learns a lower bound for a quiet
// shard's next event instead of blocking on it forever. The splitter only
// ever waits on the soft bound — and it watermarks everyone first — so
// every cycle through splitter → shard → merger has a consumable minimum.
//
// One shard has nothing to split or merge: it runs its engine directly
// over a read-ahead of the source, on the caller's goroutine, and the
// merged-stream observers attach to that live engine.
package sim

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/cache"
	"repro/internal/ftl"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// SharingMode selects how the sharded engine divides the global buffer
// capacity among shards (MQSim's sharing modes).
type SharingMode uint8

const (
	// SharingShared gives every shard the full global capacity with a
	// per-shard soft quota of capacity/N: a shard may transiently borrow
	// past its slice, but the engine destages the overflow immediately
	// (Config.SoftQuotaPages), so the global footprint stays bounded.
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
	// The splitter stops routing at that ordinal; one shard stops its
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
	reqBatchLen              = 256  // requests per splitter→shard batch
	eventBatchLen            = 256  // events per shard→merger batch
	watermarkEvery           = 1024 // ordinals between splitter watermark rounds
	outChanCap               = 8    // event batches buffered per shard
	backlogPerShard          = 8192 // soft bound on queued requests, per shard
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
// the splitter applies: explicit tenant boundaries when present (tenant t
// maps to shard t mod shards), otherwise the splitmix64 hash of the LPN's
// regionPages-sized address region. Exported so front-ends (the service
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

// seqReq is one routed request with its global source ordinal.
type seqReq struct {
	req trace.Request
	seq int64
}

// reqBatch is one splitter→shard message: a run of requests, or a bare
// watermark promising that every future request for this shard has a
// larger ordinal.
type reqBatch struct {
	reqs      []seqReq
	watermark int64
}

// shardQueue is an unbounded FIFO of request batches. Unbounded is what
// makes the splitter's sends non-blocking (the deadlock-freedom argument
// above); the global backlog soft bound keeps memory finite.
type shardQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	batches []reqBatch
	head    int
	closed  bool
}

func newShardQueue() *shardQueue {
	q := &shardQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *shardQueue) push(b reqBatch) {
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

// pop blocks until a batch is available or the queue is closed and empty.
func (q *shardQueue) pop() (reqBatch, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head >= len(q.batches) && !q.closed {
		q.cond.Wait()
	}
	if q.head >= len(q.batches) {
		return reqBatch{}, false
	}
	b := q.batches[q.head]
	q.batches[q.head] = reqBatch{}
	q.head++
	if q.head == len(q.batches) {
		q.batches = q.batches[:0]
		q.head = 0
	}
	return b, true
}

// backlog is the global soft bound on splitter-queued requests.
type backlog struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	limit int
}

func newBacklog(limit int) *backlog {
	b := &backlog{limit: limit}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *backlog) add(n int) {
	b.mu.Lock()
	b.n += n
	b.mu.Unlock()
}

func (b *backlog) sub(n int) {
	b.mu.Lock()
	b.n -= n
	b.mu.Unlock()
	b.cond.Broadcast()
}

// waitBelow blocks while the backlog is at or above the limit. The
// splitter calls it only after watermarking every shard, so the pipeline
// can always drain while it waits.
func (b *backlog) waitBelow() {
	b.mu.Lock()
	for b.n >= b.limit {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// shardSource adapts a shard's queue to trace.Source for its engine. seq
// tracks the ordinal of the request most recently yielded — the relay tags
// every event the engine emits between Next calls with it, which is exact
// because the engine fully processes one request before pulling the next.
type shardSource struct {
	name  string
	q     *shardQueue
	bl    *backlog
	relay *shardRelay
	cur   reqBatch
	pos   int
	seq   int64
}

func (s *shardSource) Name() string { return s.name }
func (s *shardSource) Err() error   { return nil }

func (s *shardSource) Next() (trace.Request, bool) {
	for {
		if s.pos < len(s.cur.reqs) {
			r := s.cur.reqs[s.pos]
			s.pos++
			s.seq = r.seq
			return r.req, true
		}
		b, ok := s.q.pop()
		if !ok {
			return trace.Request{}, false
		}
		if n := len(b.reqs); n > 0 {
			s.bl.sub(n)
		}
		if b.watermark > 0 {
			s.relay.watermark(b.watermark)
		}
		s.cur, s.pos = b, 0
	}
}

// shardEvent kinds inside an eventBatch.
type shardEventKind uint8

const (
	sevRequest shardEventKind = iota
	sevEviction
	sevResult
	sevWatermark
)

// shardEvent is one relayed engine event (or a watermark), tagged with the
// owning request's global ordinal. Slice fields point into the batch's
// arenas.
type shardEvent struct {
	kind shardEventKind
	seq  int64

	req RequestEvent // sevRequest, sevResult (already ordinal-rewritten)

	// sevResult
	res        cache.Result
	completion int64
	prefetched int
	nodeCount  int
	blame      Blame
	occ        []int

	// sevEviction
	evKind      EvictionKind
	evTime      int64
	lpns        []int64
	transferred int64
	durable     int64
	scanCost    int64
}

// eventBatch is one shard→merger message. The arenas back the events'
// slice fields so relaying a batch costs a handful of allocations total,
// not one per event; batches recycle through a free list.
type eventBatch struct {
	ev   []shardEvent
	lpns []int64
	evs  []cache.Eviction
	occ  []int
}

func (b *eventBatch) reset() {
	b.ev = b.ev[:0]
	b.lpns = b.lpns[:0]
	b.evs = b.evs[:0]
	b.occ = b.occ[:0]
}

// carveLPNs appends src to the LPN arena and returns the capacity-clipped
// window holding the copy. Later arena growth may reallocate the backing
// array, but the window keeps pointing at the old one — the same trick
// cache.ResultBuffers uses.
func (b *eventBatch) carveLPNs(src []int64) []int64 {
	if len(src) == 0 {
		return nil
	}
	mark := len(b.lpns)
	b.lpns = append(b.lpns, src...)
	return b.lpns[mark:len(b.lpns):len(b.lpns)]
}

// shardRelay is the observer attached first on every shard engine: it
// copies each event into the current batch, rewriting Index/Warm to the
// request's global ordinal, and ships full batches to the merger.
type shardRelay struct {
	src     *shardSource
	sampler cache.OccupancySampler // nil unless capturing occupancy
	out     chan *eventBatch
	free    chan *eventBatch
	cur     *eventBatch
	warmup  int // global warmup threshold (ordinals)
}

func (r *shardRelay) batch() *eventBatch {
	if r.cur == nil {
		select {
		case b := <-r.free:
			r.cur = b
		default:
			r.cur = &eventBatch{ev: make([]shardEvent, 0, eventBatchLen)}
		}
	}
	return r.cur
}

func (r *shardRelay) flush() {
	if r.cur != nil && len(r.cur.ev) > 0 {
		r.out <- r.cur
		r.cur = nil
	}
}

func (r *shardRelay) maybeFlush() {
	if r.cur != nil && len(r.cur.ev) >= eventBatchLen {
		r.flush()
	}
}

// watermark forwards a splitter watermark downstream. It must flush so the
// merger sees it promptly — that visibility is the liveness guarantee.
func (r *shardRelay) watermark(seq int64) {
	b := r.batch()
	b.ev = append(b.ev, shardEvent{kind: sevWatermark, seq: seq})
	r.flush()
}

// rewrite returns ev with Index/Warm recomputed from the global ordinal,
// so merged streams are indistinguishable from a single engine's.
func (r *shardRelay) rewrite(ev *RequestEvent) RequestEvent {
	req := *ev
	req.Index = int(r.src.seq)
	req.Warm = req.Index >= r.warmup
	return req
}

func (r *shardRelay) OnRequest(_ *Engine, ev *RequestEvent) {
	b := r.batch()
	b.ev = append(b.ev, shardEvent{kind: sevRequest, seq: r.src.seq, req: r.rewrite(ev)})
	r.maybeFlush()
}

func (r *shardRelay) OnEviction(_ *Engine, ev *EvictionEvent) {
	b := r.batch()
	b.ev = append(b.ev, shardEvent{
		kind: sevEviction, seq: r.src.seq,
		evKind: ev.Kind, evTime: ev.Time, lpns: b.carveLPNs(ev.LPNs),
		transferred: ev.Transferred, durable: ev.Durable, scanCost: ev.ScanCost,
	})
	r.maybeFlush()
}

func (r *shardRelay) OnResult(_ *Engine, ev *ResultEvent) {
	b := r.batch()
	rec := shardEvent{
		kind: sevResult, seq: r.src.seq,
		req:        r.rewrite(ev.Req),
		completion: ev.Completion,
		prefetched: ev.Prefetched,
		nodeCount:  ev.NodeCount,
		blame:      ev.Blame,
	}
	// Deep-copy the result: its slices alias policy buffers that the next
	// Access overwrites, and the merger reads them on another goroutine.
	res := *ev.Res
	res.ReadMisses = b.carveLPNs(res.ReadMisses)
	res.Prefetches = b.carveLPNs(res.Prefetches)
	res.Bypass = b.carveLPNs(res.Bypass)
	if n := len(res.Evictions); n > 0 {
		mark := len(b.evs)
		for i := range res.Evictions {
			src := res.Evictions[i]
			src.LPNs = b.carveLPNs(src.LPNs)
			src.PaddingReads = b.carveLPNs(src.PaddingReads)
			b.evs = append(b.evs, src)
		}
		res.Evictions = b.evs[mark:len(b.evs):len(b.evs)]
	}
	rec.res = res
	if r.sampler != nil {
		mark := len(b.occ)
		b.occ = r.sampler.AppendOccupancy(b.occ)
		rec.occ = b.occ[mark:len(b.occ):len(b.occ)]
	}
	b.ev = append(b.ev, rec)
	r.maybeFlush()
}

func (r *shardRelay) OnDone(_ *Engine, _ *DoneEvent) { r.flush() }

// ShardedEngine replays one source across N shard engines and re-merges
// their event streams deterministically. Build with NewSharded, register
// merged-stream observers with Observe, then call Run once.
type ShardedEngine struct {
	src trace.Source
	cfg ShardConfig
	obs []Observer
	// direct runs the single shard's engine itself instead of the
	// splitter/relay/merger pipeline.
	direct bool

	pols    []cache.Policy
	devs    []*ssd.Device
	engines []*Engine
	relays  []*shardRelay
	queues  []*shardQueue
	bl      *backlog

	stoppedFeed bool // StopAfterRequests tripped
}

// NewSharded validates the config and builds every shard's policy, device
// and engine (accessible via ShardPolicies/ShardDevices before Run — the
// replay layer needs them to assemble observers).
func NewSharded(src trace.Source, cfg ShardConfig) (*ShardedEngine, error) {
	return newSharded(src, cfg, false)
}

// newSharded is NewSharded with the pipeline choice exposed: pipeline
// forces the splitter/relay/merger even for one shard, so tests can hold
// the direct path to the pipeline's event stream.
func newSharded(src trace.Source, cfg ShardConfig, pipeline bool) (*ShardedEngine, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("sim: shards %d, need >= 1", cfg.Shards)
	}
	if cfg.NewPolicy == nil || cfg.NewDevice == nil {
		return nil, fmt.Errorf("sim: sharded config needs NewPolicy and NewDevice")
	}
	if cfg.TotalCapacityPages < cfg.Shards {
		return nil, fmt.Errorf("sim: capacity %d pages across %d shards leaves empty shards",
			cfg.TotalCapacityPages, cfg.Shards)
	}
	if cfg.BackPressureDepth < 0 {
		return nil, fmt.Errorf("sim: back-pressure depth %d is negative (0 disables)", cfg.BackPressureDepth)
	}
	if cfg.StopAfterRequests < 0 {
		return nil, fmt.Errorf("sim: stop-after %d is negative (0 disables)", cfg.StopAfterRequests)
	}
	if cfg.TenantRegionPages < 0 {
		return nil, fmt.Errorf("sim: tenant region %d pages is negative (0 selects the default)", cfg.TenantRegionPages)
	}
	// Region hashing and explicit boundaries are competing routing schemes;
	// configuring both means one of them is silently dead — reject instead.
	if cfg.TenantRegionPages > 0 && len(cfg.TenantBoundaries) > 0 {
		return nil, fmt.Errorf("sim: tenant region pages (%d) conflicts with explicit tenant boundaries (%d): boundaries route, regions would be ignored",
			cfg.TenantRegionPages, len(cfg.TenantBoundaries))
	}
	if cfg.TenantRegionPages == 0 {
		cfg.TenantRegionPages = defaultTenantRegionPages
	}
	if !sort.SliceIsSorted(cfg.TenantBoundaries, func(i, j int) bool {
		return cfg.TenantBoundaries[i] < cfg.TenantBoundaries[j]
	}) {
		return nil, fmt.Errorf("sim: tenant boundaries must be sorted")
	}

	s := &ShardedEngine{
		src: src, cfg: cfg,
		direct:  cfg.Shards == 1 && !pipeline,
		pols:    make([]cache.Policy, cfg.Shards),
		devs:    make([]*ssd.Device, cfg.Shards),
		engines: make([]*Engine, cfg.Shards),
		relays:  make([]*shardRelay, cfg.Shards),
		queues:  make([]*shardQueue, cfg.Shards),
		bl:      newBacklog(cfg.Shards * backlogPerShard),
	}
	for k := 0; k < cfg.Shards; k++ {
		capPages, quota := ShardQuota(cfg.Sharing, cfg.TotalCapacityPages, cfg.Shards, k)
		pol := cfg.NewPolicy(k, capPages)
		if pol == nil {
			return nil, fmt.Errorf("sim: NewPolicy returned nil for shard %d", k)
		}
		dev, err := cfg.NewDevice(k)
		if err != nil {
			return nil, fmt.Errorf("sim: shard %d device: %w", k, err)
		}
		if cfg.BackPressureDepth > 0 {
			dev.SetBackPressure(cfg.BackPressureDepth)
		}
		if cfg.Engine.GCBudgetNs > 0 && !dev.GCSchedEnabled() {
			dev.EnableGCScheduler(ftl.GCSchedConfig{Enabled: true})
		}
		ecfg := cfg.Engine
		// A lone shard holds the whole capacity: no quota to enforce.
		ecfg.SoftQuotaPages = 0
		if cfg.Sharing == SharingShared && cfg.Shards > 1 {
			ecfg.SoftQuotaPages = quota
		}
		s.pols[k], s.devs[k] = pol, dev
		if s.direct {
			// runDirect binds the read-ahead source and the merged-stream
			// observers.
			s.engines[k] = New(nil, pol, dev, ecfg)
		} else {
			// Warmth is an ordinal property of the global stream; the relay
			// rewrites it, so the shard engine itself never marks cold.
			ecfg.WarmupRequests = 0
			relay := &shardRelay{
				out:    make(chan *eventBatch, outChanCap),
				free:   make(chan *eventBatch, outChanCap+2),
				warmup: cfg.Engine.WarmupRequests,
			}
			if cfg.CaptureOccupancy {
				relay.sampler, _ = pol.(cache.OccupancySampler)
			}
			srcK := &shardSource{name: src.Name(), q: newShardQueue(), bl: s.bl, relay: relay}
			relay.src = srcK
			s.engines[k], s.relays[k], s.queues[k] = New(srcK, pol, dev, ecfg), relay, srcK.q
			s.engines[k].Observe(relay)
		}
		if cfg.ShardObservers != nil {
			s.engines[k].Observe(cfg.ShardObservers(k, s.engines[k])...)
		}
	}
	return s, nil
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

// splitResult is what the splitter goroutine reports back.
type splitResult struct {
	hasRequests  bool
	firstArrival int64
	lastArrival  int64
	err          error
}

// split routes the source across the shard queues. It runs on its own
// goroutine and owns the source.
func (s *ShardedEngine) split(res *splitResult) {
	n := s.cfg.Shards
	pageSize := s.devs[0].PageSize()
	pending := make([][]seqReq, n)
	closed := false
	closeAll := func() {
		if closed {
			return
		}
		closed = true
		for k := 0; k < n; k++ {
			if len(pending[k]) > 0 {
				s.bl.add(len(pending[k]))
				s.queues[k].push(reqBatch{reqs: pending[k]})
				pending[k] = nil
			}
			s.queues[k].close()
		}
	}
	defer closeAll()

	fed := 0
	for i := int64(0); ; i++ {
		req, ok := s.src.Next()
		if !ok {
			break
		}
		if !res.hasRequests {
			res.hasRequests = true
			res.firstArrival = req.Time
		}
		res.lastArrival = req.Time
		if closed {
			continue // post-crash horizon drain: arrivals only
		}

		first, pages := req.PageSpan(pageSize)
		k := s.shardOf(first)
		pending[k] = append(pending[k], seqReq{req: req, seq: i})
		if len(pending[k]) >= reqBatchLen {
			s.bl.add(len(pending[k]))
			s.queues[k].push(reqBatch{reqs: pending[k]})
			pending[k] = nil
		}
		if pages > 0 {
			fed++
			if s.cfg.StopAfterRequests > 0 && fed >= s.cfg.StopAfterRequests {
				// Global power-loss point: deliver everything routed so
				// far (including this request) and cut the stream.
				s.stoppedFeed = true
				closeAll()
				continue
			}
		}
		if i%watermarkEvery == watermarkEvery-1 {
			for k := 0; k < n; k++ {
				if len(pending[k]) > 0 {
					s.bl.add(len(pending[k]))
					s.queues[k].push(reqBatch{reqs: pending[k]})
					pending[k] = nil
				} else {
					s.queues[k].push(reqBatch{watermark: i + 1})
				}
			}
			// Wait (if at the soft bound) only after every shard has
			// fresh progress information — the no-deadlock invariant.
			s.bl.waitBelow()
		}
	}
	res.err = s.src.Err()
}

// Run replays the source across the shards and returns the merged run
// summary. It may be called once per ShardedEngine.
func (s *ShardedEngine) Run() (DoneEvent, error) {
	if s.direct {
		return s.runDirect()
	}
	n := s.cfg.Shards

	var split splitResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.split(&split)
	}()

	errs := make([]error, n)
	dones := make([]DoneEvent, n)
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			dones[k], errs[k] = s.engines[k].Run()
			// On an engine error the queue may still hold batches the
			// splitter accounted to the backlog; drain them so the
			// splitter's soft-bound wait can always make progress.
			for {
				b, ok := s.queues[k].pop()
				if !ok {
					break
				}
				if len(b.reqs) > 0 {
					s.bl.sub(len(b.reqs))
				}
			}
			s.relays[k].flush()
			close(s.relays[k].out)
		}(k)
	}

	processed := s.merge()
	wg.Wait()

	// Deterministic error priority: shards by index, then the source.
	for k := 0; k < n; k++ {
		if errs[k] != nil {
			return DoneEvent{}, fmt.Errorf("sim: shard %d: %w", k, errs[k])
		}
	}
	if split.err != nil {
		return DoneEvent{}, split.err
	}

	done := DoneEvent{
		Processed:    processed,
		HasRequests:  split.hasRequests,
		FirstArrival: split.firstArrival,
		LastArrival:  split.lastArrival,
		Stopped:      s.stoppedFeed,
	}
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

// runDirect runs a one-shard replay on the caller's goroutine: the shard's
// engine pulls a read-ahead of the source (the filler goroutine is joined
// before runDirect returns), and the merged-stream observers see the live
// engine, followed by the ShardAware and stop-after duties the merger and
// splitter would otherwise perform.
func (s *ShardedEngine) runDirect() (DoneEvent, error) {
	eng := s.engines[0]
	ahead := trace.NewReadAhead(s.src)
	defer ahead.Close()
	eng.src = ahead
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

// merge is the deterministic sequence-number min-merge: it repeatedly
// dispatches the event with the smallest global ordinal across all shard
// streams. Runs on the caller's goroutine and returns the merged processed
// count.
func (s *ShardedEngine) merge() int {
	n := s.cfg.Shards
	type head struct {
		b *eventBatch
		i int
	}
	hs := make([]head, n)
	open := make([]bool, n)
	for k := range open {
		open[k] = true
	}
	// Per-shard node counts fold into one global population, as a single
	// engine over one policy would have reported.
	nodes := make([]int, n)
	nodeSum := 0
	processed := 0

	shardAware := make([]ShardAware, 0, len(s.obs))
	for _, o := range s.obs {
		if sa, ok := o.(ShardAware); ok {
			shardAware = append(shardAware, sa)
		}
	}

	// Reusable dispatch events, mirroring the single engine's zero-alloc
	// emission contract.
	var reqEv RequestEvent
	var evEv EvictionEvent
	var resEv ResultEvent

	recycle := func(k int, b *eventBatch) {
		b.reset()
		select {
		case s.relays[k].free <- b:
		default:
		}
	}
	// ensure blocks until shard k has a head event or its stream closed.
	ensure := func(k int) bool {
		h := &hs[k]
		for {
			if h.b != nil && h.i < len(h.b.ev) {
				return true
			}
			if h.b != nil {
				recycle(k, h.b)
				h.b = nil
			}
			b, ok := <-s.relays[k].out
			if !ok {
				open[k] = false
				return false
			}
			h.b, h.i = b, 0
		}
	}

	for {
		best := -1
		bestSeq := int64(math.MaxInt64)
		for k := 0; k < n; k++ {
			if !open[k] || !ensure(k) {
				continue
			}
			if seq := hs[k].b.ev[hs[k].i].seq; seq < bestSeq {
				best, bestSeq = k, seq
			}
		}
		if best == -1 {
			break
		}
		rec := &hs[best].b.ev[hs[best].i]
		hs[best].i++
		switch rec.kind {
		case sevWatermark:
			// Progress marker only; produces no observer calls.
		case sevRequest:
			reqEv = rec.req
			for _, o := range s.obs {
				o.OnRequest(nil, &reqEv)
			}
		case sevEviction:
			evEv = EvictionEvent{
				Kind: rec.evKind, Time: rec.evTime, LPNs: rec.lpns,
				Transferred: rec.transferred, Durable: rec.durable,
				ScanCost: rec.scanCost,
			}
			for _, o := range s.obs {
				o.OnEviction(nil, &evEv)
			}
		case sevResult:
			processed++
			nodeSum += rec.nodeCount - nodes[best]
			nodes[best] = rec.nodeCount
			reqEv = rec.req
			resEv = ResultEvent{
				Req: &reqEv, Res: &rec.res,
				Completion: rec.completion, Prefetched: rec.prefetched,
				Processed: processed, NodeCount: nodeSum,
				Blame: rec.blame,
			}
			for _, o := range s.obs {
				o.OnResult(nil, &resEv)
			}
			for _, sa := range shardAware {
				sa.OnShardResult(best, rec.occ, &resEv)
			}
		}
	}
	return processed
}
