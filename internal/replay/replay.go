// Package replay drives a block trace through a cache policy and the
// simulated SSD, producing every metric the paper's evaluation reports:
// per-request response times (Fig. 8), page hit ratios (Fig. 9), eviction
// batch sizes (Fig. 10), flash write counts (Fig. 11), metadata space
// (Fig. 12), list occupancy series (Fig. 13), and the motivation
// statistics (Figs. 2 and 3).
//
// The simulation itself lives in internal/sim: a streaming engine that
// pulls requests from a trace.Source and emits observer events. This
// package assembles the paper's metric set as sim.Observer implementations
// (see observers.go) in one replay body, RunSharded, which every entry
// point reaches: Run replays a materialized *trace.Trace, RunSource
// replays any trace.Source — e.g. a trace.Scanner reading an MSR CSV file
// — in constant memory, never holding the trace, and RunShardedTrace
// splits a materialized trace across shards.
//
// The replay is open-loop and deterministic: requests enter at their trace
// timestamps, the cache decides hits/evictions instantly (DRAM time), and
// flash work is scheduled on the device's channel/chip timeline. A write
// request that triggered evictions completes when the victims' buffer
// frames are free — i.e. when their data has transferred over the channels
// into the chip registers; the cell programs continue on the dies and slow
// down later reads and flushes through resource occupancy. A read completes
// when its last page arrives from flash or DRAM.
package replay

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// Options tune the replay instrumentation.
type Options struct {
	// SmallThresholdPages separates small from large requests for the
	// Fig. 2/3 motivation statistics. Zero derives it from the trace's
	// mean request size, as the paper's footnote 1 specifies (Run and
	// RunShardedTrace only: the derivation needs the whole trace, so a
	// streamed source requires an explicit threshold when TrackPageFates
	// is set).
	SmallThresholdPages int
	// SeriesInterval is the request interval for occupancy sampling
	// (Fig. 13 logs every 10,000 requests). Zero disables the series.
	SeriesInterval int64
	// TrackPageFates enables the per-page bookkeeping behind Figs. 2-3
	// (insert/hit CDFs by request size and large-page hit fractions). It
	// costs one map entry per resident page.
	TrackPageFates bool
	// WarmupRequests excludes the first N requests from the hit/latency
	// metrics: they still drive the cache and the device (state warms up),
	// but a cold cache's compulsory misses do not pollute steady-state
	// numbers. Structural counters (flash writes, evictions) still cover
	// the whole run.
	WarmupRequests int
	// IdleFlushNs enables Co-Active-style proactive eviction (for
	// policies implementing cache.IdleEvictor): whenever the gap before
	// the next request exceeds this threshold, victims are flushed during
	// the idle period, as many as fit before the next arrival. Zero
	// disables.
	IdleFlushNs int64
	// IdleGC additionally runs background garbage collection during those
	// same idle windows (requires IdleFlushNs > 0), refilling free-block
	// headroom so foreground writes stall on GC less often.
	IdleGC bool
	// GCBudgetNs grants the device's preemptible GC scheduler a budgeted
	// slice per idle window (after the idle flusher drains): see
	// sim.Config.GCBudgetNs. Requires IdleFlushNs > 0; mutually exclusive
	// with IdleGC. A device without the scheduler enabled gets it enabled
	// with defaults. Zero keeps the legacy greedy path bit-identical.
	GCBudgetNs int64
	// QueueDepth switches from open-loop replay (requests enter at their
	// trace timestamps regardless of progress) to a closed loop with this
	// many outstanding requests: request i issues at
	// max(arrival_i, completion_{i-QD}). Zero keeps the open loop.
	// Closed-loop replay answers "what does the device sustain", open
	// loop "how does it respond to this arrival process" — the paper's
	// SSDsim runs are open-loop.
	QueueDepth int
	// TenantBoundaries splits the logical address space (in pages) into
	// tenants for per-tenant metrics on mixed workloads (workload.Mix):
	// tenant i covers [boundary_{i-1}, boundary_i), with an implicit
	// leading 0. A request belongs to the tenant holding its first page.
	// Empty disables per-tenant accounting.
	TenantBoundaries []int64
	// CrashAtRequest simulates a DRAM power loss: the replay stops after
	// that many processed requests and the dirty pages still buffered are
	// counted as lost (Metrics.LostDirtyPages). Zero disables.
	CrashAtRequest int
	// DestageNs enables periodic destaging: every DestageNs of simulated
	// time the replayer drains victim batches from the write buffer
	// (policies implementing cache.IdleEvictor), bounding the dirty data a
	// crash can lose. Zero disables.
	DestageNs int64
	// BackPressureDepth bounds the destage backlog between the cache and
	// the flash backend (MQSim's back_pressure_buffer_max_depth): once
	// this many flush batches are outstanding, the next request is not
	// admitted until the oldest becomes durable. Zero disables (the
	// default; replays are then bit-identical to builds without the
	// back-pressure plane).
	BackPressureDepth int
	// Observers attach additional measurement observers to the engine,
	// after the replay's own (telemetry, progress reporting, request
	// tracing — see internal/obs). Observers measure; they cannot change
	// the simulation, so attaching any leaves Metrics bit-identical.
	Observers []sim.Observer
}

// Validate rejects option combinations the replay cannot honor. RunSharded
// calls it first, so a bad configuration fails loudly up front instead of
// silently skewing a long run.
func (o *Options) Validate() error {
	if o.SmallThresholdPages < 0 {
		return fmt.Errorf("replay: SmallThresholdPages %d is negative (0 means auto-derive)", o.SmallThresholdPages)
	}
	if o.SeriesInterval < 0 {
		return fmt.Errorf("replay: SeriesInterval %d is negative (0 disables the series)", o.SeriesInterval)
	}
	if o.WarmupRequests < 0 {
		return fmt.Errorf("replay: WarmupRequests %d is negative", o.WarmupRequests)
	}
	if o.IdleFlushNs < 0 {
		return fmt.Errorf("replay: IdleFlushNs %d is negative (0 disables idle flushing)", o.IdleFlushNs)
	}
	if o.IdleGC && o.IdleFlushNs == 0 {
		return fmt.Errorf("replay: IdleGC requires IdleFlushNs > 0 (idle windows are defined by the flush threshold)")
	}
	if o.GCBudgetNs < 0 {
		return fmt.Errorf("replay: GCBudgetNs %d is negative (0 disables scheduled GC)", o.GCBudgetNs)
	}
	if o.GCBudgetNs > 0 && o.IdleFlushNs == 0 {
		return fmt.Errorf("replay: GCBudgetNs requires IdleFlushNs > 0 (idle windows are defined by the flush threshold)")
	}
	if o.GCBudgetNs > 0 && o.IdleGC {
		return fmt.Errorf("replay: GCBudgetNs and IdleGC are mutually exclusive (scheduled vs greedy idle GC)")
	}
	if o.QueueDepth < 0 {
		return fmt.Errorf("replay: QueueDepth %d is negative (0 keeps the open loop)", o.QueueDepth)
	}
	if o.CrashAtRequest < 0 {
		return fmt.Errorf("replay: CrashAtRequest %d is negative (0 disables the crash)", o.CrashAtRequest)
	}
	if o.DestageNs < 0 {
		return fmt.Errorf("replay: DestageNs %d is negative (0 disables destaging)", o.DestageNs)
	}
	if o.BackPressureDepth < 0 {
		return fmt.Errorf("replay: BackPressureDepth %d is negative (0 disables back-pressure)", o.BackPressureDepth)
	}
	var prev int64
	for i, b := range o.TenantBoundaries {
		if b <= prev {
			return fmt.Errorf("replay: tenant boundaries must be increasing: boundary %d is %d after %d", i, b, prev)
		}
		prev = b
	}
	return nil
}

// ApplyFaults copies the replay-level fields of a fault configuration
// (crash point, destage interval) into the options; the flash-level fields
// are consumed by ssd.New.
func (o *Options) ApplyFaults(cfg fault.Config) {
	if cfg.CrashAtRequest > 0 {
		o.CrashAtRequest = cfg.CrashAtRequest
	}
	if cfg.DestageNs > 0 {
		o.DestageNs = cfg.DestageNs
	}
}

// TenantMetrics is the per-tenant slice of a mixed-workload run.
type TenantMetrics struct {
	// FirstPage and LastPage delimit the tenant's address range.
	FirstPage, LastPage int64
	// PageHits / PageMisses count the tenant's cache outcomes.
	PageHits, PageMisses int64
	// Response summarizes the tenant's request response times.
	Response metrics.Summary
}

// HitRatio returns the tenant's page hit ratio.
func (tm *TenantMetrics) HitRatio() float64 {
	return metrics.Ratio(float64(tm.PageHits), float64(tm.PageHits+tm.PageMisses))
}

// Metrics aggregates one replay run.
type Metrics struct {
	// Trace and Policy identify the run.
	Trace, Policy string

	// Requests processed.
	Requests int
	// PageHits / PageMisses count page-level cache outcomes; the paper's
	// hit ratio is PageHits / (PageHits + PageMisses).
	PageHits, PageMisses int64
	// ReadPageHits and WritePageHits split PageHits by request type.
	ReadPageHits, WritePageHits int64

	// Response summarizes per-request response times in nanoseconds.
	Response metrics.Summary
	// ReadResponse / WriteResponse split Response by request type.
	ReadResponse, WriteResponse metrics.Summary
	// ResponseP50 / ResponseP99 / ResponseP999 estimate the median, 99th-
	// and 99.9th-percentile response times (P² streaming estimators):
	// whole-block flush bursts show up in the tail long before they move
	// the mean, and foreground GC pauses live almost entirely in P99.9.
	ResponseP50, ResponseP99, ResponseP999 *metrics.Quantile

	// EvictionBatch is the histogram of pages per eviction operation
	// (Fig. 10). Clean drops (CFLRU) are excluded: nothing was flushed.
	EvictionBatch *metrics.Hist
	// FlushedPages counts pages written to flash by evictions.
	FlushedPages int64
	// CleanDrops counts pages discarded without a flush.
	CleanDrops int64
	// IdleFlushedPages counts pages proactively flushed during idle gaps
	// (Options.IdleFlushNs); they are part of FlushedPages too.
	IdleFlushedPages int64
	// DestagedPages counts pages flushed by the periodic destager
	// (Options.DestageNs); they are part of FlushedPages too.
	DestagedPages int64
	// Crashed is true when Options.CrashAtRequest stopped the run;
	// CrashedAtRequest records where and LostDirtyPages how many dirty
	// pages the simulated power loss destroyed.
	Crashed          bool
	CrashedAtRequest int
	LostDirtyPages   int64
	// Degraded is true when the device entered read-only mode (reserve
	// blocks exhausted) and the replay stopped; DegradedAtRequest records
	// the request count at that point.
	Degraded          bool
	DegradedAtRequest int
	// IdleGCRuns counts background GC victim collections (Options.IdleGC,
	// or completed scheduler collections under Options.GCBudgetNs).
	IdleGCRuns int64
	// GCSched snapshots the preemptible GC scheduler's counters, summed
	// over the shards' devices (Options.GCBudgetNs or a pre-enabled
	// device); all zero otherwise.
	GCSched ftl.GCSchedStats
	// BackPressureStalls counts admissions delayed by the destage backlog
	// bound (Options.BackPressureDepth); BackPressureStallNs is the total
	// simulated delay. Both zero with back-pressure off.
	BackPressureStalls  int64
	BackPressureStallNs int64
	// PrefetchedPages counts background readahead pages fetched from
	// flash (prefetching policies only).
	PrefetchedPages int64
	// BypassedPages counts large-write pages that skipped the buffer and
	// streamed straight to flash (admission-control policies only).
	BypassedPages int64
	// Tenants holds per-tenant metrics when Options.TenantBoundaries was
	// set (mixed workloads).
	Tenants []TenantMetrics
	// Energy is the run's flash energy breakdown plus DRAM traffic energy
	// (extension; representative per-op energies, see ssd.EnergyParams).
	Energy ssd.EnergyBreakdown
	// DRAMEnergyUJ is the cache-side energy (hits and insertions).
	DRAMEnergyUJ float64

	// Device is the SSD counter snapshot (Fig. 11's write count is
	// Device.FlashWrites).
	Device ssd.Counters
	// Endurance is the end-of-run wear and lifetime projection at the
	// default QLC P/E budget (extension experiment; the paper motivates
	// write buffering with endurance but does not quantify it).
	Endurance ssd.Endurance
	// Utilization is the channel/die occupancy over the trace duration
	// (extension: quantifies §4.2.4's parallelism argument).
	Utilization flash.Utilization

	// NodeBytes is the per-node metadata cost of the policy; MaxNodes and
	// MeanNodes track the list population (Fig. 12: space = bytes×nodes).
	NodeBytes int
	MaxNodes  int
	MeanNodes float64

	// ListSeries samples each internal list's page count every
	// SeriesInterval requests for OccupancyReporter policies (Fig. 13).
	ListSeries map[string]*metrics.Series

	// InsertBySize / HitBySize histogram page inserts and page hits by
	// the page count of the *write request that inserted the page*
	// (Fig. 2's CDFs).
	InsertBySize, HitBySize *metrics.Hist

	// LargeInserted counts page insertions from large write requests;
	// LargeHitBeforeEviction counts how many of those received at least
	// one hit before leaving the cache (Fig. 3).
	LargeInserted, LargeHitBeforeEviction int64

	// SmallThresholdPages is the small/large boundary used (resolved).
	SmallThresholdPages int
}

// HitRatio returns page hits over all page accesses.
func (m *Metrics) HitRatio() float64 {
	return metrics.Ratio(float64(m.PageHits), float64(m.PageHits+m.PageMisses))
}

// LargeHitFraction returns Fig. 3's statistic: the fraction of pages
// inserted by large requests that were re-accessed while cached.
func (m *Metrics) LargeHitFraction() float64 {
	return metrics.Ratio(float64(m.LargeHitBeforeEviction), float64(m.LargeInserted))
}

// MeanEvictionPages returns Fig. 10's statistic.
func (m *Metrics) MeanEvictionPages() float64 { return m.EvictionBatch.Mean() }

// SpaceOverheadBytes returns Fig. 12's statistic using peak population.
func (m *Metrics) SpaceOverheadBytes() int64 {
	return int64(m.NodeBytes) * int64(m.MaxNodes)
}

// Run replays a materialized trace against a policy and device. It is a
// thin wrapper over RunSource: the only thing it adds is the auto-derived
// small/large threshold, which needs the whole trace (footnote 1's mean
// request size).
func Run(tr *trace.Trace, pol cache.Policy, dev *ssd.Device, opts Options) (*Metrics, error) {
	if opts.SmallThresholdPages == 0 {
		opts.SmallThresholdPages = meanRequestPages(tr, dev.PageSize())
	}
	return RunSource(tr.Source(), pol, dev, opts)
}

// RunSource replays a streaming source against a policy and device in
// O(cache) memory: requests are consumed in small batches and never
// retained, so a multi-hundred-MB trace file replays without being
// materialized. It is RunSharded with one shard holding pol and dev, which
// runs the bare engine: the source is pulled on its own goroutine
// (trace.ReadAhead), so parsing overlaps the simulation; RunSource joins
// that goroutine before it returns, on every path, and only then may the
// caller touch the source again. Metrics are bit-identical to Run over
// the same request sequence.
func RunSource(src trace.Source, pol cache.Policy, dev *ssd.Device, opts Options) (*Metrics, error) {
	return RunSharded(src, ShardSpec{
		Shards:             1,
		Sharing:            sim.SharingEqual,
		TotalCapacityPages: pol.CapacityPages(),
		NewPolicy:          func(int, int) cache.Policy { return pol },
		NewDevice:          func(int) (*ssd.Device, error) { return dev, nil },
	}, opts)
}

// meanRequestPages computes the trace's mean request size in pages, the
// paper's small/large boundary.
func meanRequestPages(tr *trace.Trace, pageSize int64) int {
	if len(tr.Requests) == 0 {
		return 1
	}
	var total int64
	for _, r := range tr.Requests {
		_, n := r.PageSpan(pageSize)
		total += int64(n)
	}
	mean := int(total / int64(len(tr.Requests)))
	if mean < 1 {
		mean = 1
	}
	return mean
}
