// Package cache defines the SSD write-buffer abstraction the paper studies
// and implements the baseline replacement policies it compares against:
// page-granularity LRU, FIFO, LFU and CFLRU, and block-granularity FAB,
// BPLRU and VBBMS. The paper's own contribution, Req-block, lives in
// internal/core and implements the same Policy interface.
//
// A Policy is a pure, deterministic state machine: Access consumes one host
// request and reports page hits, read misses that must be fetched from
// flash, and the eviction batches flushed to make room. The replayer turns
// those decisions into simulated flash traffic; keeping policies free of
// timing makes every replacement decision unit-testable.
//
// Following the paper's Algorithm 1, the cache is a write buffer: only
// write data is inserted. Read hits are served from the buffer; read misses
// go to flash and are not inserted (CFLRU, whose design depends on clean
// pages, optionally deviates — see its constructor).
//
// Every policy, Req-block included, finds buffered pages through one
// PageIndex: page policies key it by LPN, block policies by block number.
// It is a two-level radix. A directory map leads from key>>9 to a leaf of
// 512 eight-byte slots (one 4 KiB array); leaves are allocated when their
// first key arrives and pooled when their last key leaves. A one-entry
// cache of the last leaf looked up lets a request's consecutive pages, and
// a block's pages at eviction, skip the directory hash. A leaf costs its
// 4 KiB however few of its keys are present, and emptied leaves stay
// pooled, so an index peaks at min(device logical pages, 512 × buffered
// keys) slots, plus under 2% for leaf headers and directory entries. The
// device-wide cap is 14 MiB on ScaledParams(16) and 224 MiB on the 128 GiB
// device; it holds because the engine and the service reject LPNs beyond
// the device's logical size. Req-block over the built-in workloads peaks
// at 256 leaves, 1 MiB; uniformly scattered LPNs approach one leaf per
// buffered key (docs/ARCHITECTURE.md).
package cache

import "fmt"

// Request is one host I/O as seen by the cache, already page-aligned.
type Request struct {
	// Time is the arrival time in nanoseconds; policies use it for
	// recency/frequency bookkeeping (e.g. Req-block's Freq formula).
	Time int64
	// Write is true for writes.
	Write bool
	// LPN is the first logical page.
	LPN int64
	// Pages is the page count, >= 1.
	Pages int
}

// Eviction is one batch of pages flushed from the buffer to flash as a
// unit. How the batch maps to flash parallelism is part of the policy's
// identity: BPLRU flushes whole logical blocks onto single physical blocks
// (BlockBound), everything else stripes across channels.
type Eviction struct {
	// LPNs are the dirty pages written to flash.
	LPNs []int64
	// BlockBound forces the batch onto one plane (BPLRU).
	BlockBound bool
	// PaddingReads are pages fetched from flash before the flush (BPLRU's
	// page padding reads the block's missing pages so it can program a
	// full block).
	PaddingReads []int64
	// CleanDrop is true when the batch was dropped without a flash write
	// (CFLRU evicting clean pages). LPNs then documents what was dropped.
	CleanDrop bool
	// HasChannelHint, with Channel, pins the flush to one channel's
	// planes. ECR uses static page→channel affinity and picks victims by
	// channel queue state, so its flushes must honor the mapping.
	HasChannelHint bool
	Channel        int
}

// DeviceView is the read-only device state a device-aware policy may
// consult (ECR ranks eviction victims by channel backlog). The replayer
// attaches it before the run; pure policies ignore it.
type DeviceView interface {
	// Channels returns the channel count.
	Channels() int
	// ChannelFreeAt returns the absolute time the channel's bus frees.
	ChannelFreeAt(channel int) int64
}

// DeviceAware is implemented by policies that want a DeviceView.
type DeviceAware interface {
	AttachDevice(DeviceView)
}

// Result reports what one request did to the cache.
//
// Ownership: the slices inside a Result alias buffers owned by the policy
// (see ResultBuffers) and are only valid until the policy's next Access or
// EvictIdle call. Callers that retain eviction batches across calls must
// copy them; the replayer consumes every Result before issuing the next
// request, so the hot path never copies.
type Result struct {
	// Hits and Misses count pages of this request served from / absent
	// from the buffer. Hits+Misses == Request.Pages.
	Hits, Misses int
	// ReadMisses lists pages a read request must fetch from flash.
	ReadMisses []int64
	// Evictions lists flush batches triggered while making room, in order.
	Evictions []Eviction
	// Inserted counts pages newly added to the buffer.
	Inserted int
	// Prefetches lists pages to read from flash in the background
	// (readahead): the replayer issues them without blocking the request.
	// Only prefetching policies (NewReadAhead) populate this.
	Prefetches []int64
	// Bypass lists write pages sent straight to flash without entering
	// the buffer (admission control for very large writes): the request
	// blocks until their transfers finish, like an eviction flush. Only
	// bypassing policies (NewBypass) populate this.
	Bypass []int64
}

// Policy is an SSD write-buffer replacement scheme.
type Policy interface {
	// Name identifies the policy ("LRU", "Req-block", ...).
	Name() string
	// Access processes one request and returns its effects.
	Access(req Request) Result
	// Len returns the number of pages currently buffered.
	Len() int
	// CapacityPages returns the buffer capacity in pages.
	CapacityPages() int
	// NodeBytes is the metadata size of one list node, as the paper's
	// Fig. 12 accounts it (LRU 12 B, block schemes 24 B, Req-block 32 B).
	NodeBytes() int
	// NodeCount returns the number of list nodes currently allocated.
	NodeCount() int
}

// IdleEvictor is implemented by policies that can nominate victims outside
// the request path, enabling Co-Active-style proactive eviction (Sun et
// al., TPDS'21, cited in the paper's related work): when the device sits
// idle, the replayer drains cold dirty data so later bursts find free
// buffer space and an idle flash array.
type IdleEvictor interface {
	// EvictIdle returns one victim batch to flush during idle time, or
	// false when the policy prefers to keep everything (e.g. the buffer
	// is not full enough to bother).
	EvictIdle(now int64) (Eviction, bool)
}

// DirtyPager is implemented by policies that can distinguish dirty from
// clean buffered pages. The crash/power-loss harness uses it to count the
// dirty pages a DRAM power loss would destroy; policies that buffer only
// write data need not implement it — every buffered page is dirty and
// Len() is the loss.
type DirtyPager interface {
	// DirtyPages returns the number of buffered pages whose loss would
	// lose host data (written but not yet flushed to flash).
	DirtyPages() int
}

// VictimScanReporter is implemented by policies that account the work
// their eviction-victim selection performs: a cumulative count of
// candidate entries examined (heap levels sifted and stale entries
// skipped in the indexed mode, nodes walked in the linear reference
// mode). The simulator differences the counter around each eviction to
// feed the per-eviction victim-scan-cost histogram.
type VictimScanReporter interface {
	// VictimScanCost returns the cumulative victim-selection work counter.
	VictimScanCost() int64
}

// LinearScanSelector is implemented by policies that kept their
// pre-vindex linear victim scan as a reference mode. The differential
// harness and the capacity benchmarks run one instance per mode and
// require bit-identical victims; production always uses the indexed
// mode. The mode must be chosen before the first request — switching
// with pages buffered would leave the victim index out of sync.
type LinearScanSelector interface {
	// SetLinearVictimScan selects the linear reference scan (true) or the
	// indexed vindex path (false, the default). Panics if the buffer is
	// not empty.
	SetLinearVictimScan(enable bool)
}

// OccupancyReporter is implemented by policies with multiple internal lists
// whose sizes are worth tracking over time (Req-block's IRL/SRL/DRL for the
// paper's Fig. 13).
type OccupancyReporter interface {
	// ListPages returns the page count held by each named internal list.
	ListPages() map[string]int
}

// OccupancySampler is the allocation-free companion of OccupancyReporter:
// the replayer samples list occupancy every few thousand requests, and
// building a fresh map per sample (ListPages) shows up in profiles. A
// policy implementing this interface exposes a stable name order plus an
// append-into-buffer counter path; ListPages stays as the convenient
// public API.
type OccupancySampler interface {
	OccupancyReporter
	// OccupancyNames returns the list names in a fixed order. The slice is
	// shared and must not be mutated.
	OccupancyNames() []string
	// AppendOccupancy appends the page count of each list to dst in
	// OccupancyNames order and returns the extended slice.
	AppendOccupancy(dst []int) []int
}

// ListTransition is one annotation of policy-internal list movement: a
// block (or a single split page) changing lists inside a multi-list policy.
// The telemetry tracer uses these to record *why* a policy kept or evicted
// data — e.g. Req-block's IRL→SRL upgrades and large-block splits into the
// DRL.
type ListTransition struct {
	// LPN is the first page involved: the hit page for a split, the
	// block's head page for a whole-block move.
	LPN int64
	// Pages is how many pages moved together.
	Pages int
	// From and To name the lists involved. Policies use fixed constant
	// strings ("IRL", "SRL", "DRL", ...) so annotating never allocates.
	// To == "merge" marks a victim merged into an eviction batch
	// (Req-block's downgraded merging).
	From, To string
}

// TransitionSink receives list-transition annotations during Access or
// EvictIdle. Implementations must be cheap when idle (the tracer checks a
// sampled flag and returns) and must not call back into the policy.
type TransitionSink interface {
	OnListTransition(tr ListTransition)
}

// TransitionSource is implemented by policies that can annotate their
// internal list transitions. A nil sink (the default) disables annotation
// at the cost of one branch per transition.
type TransitionSource interface {
	SetTransitionSink(TransitionSink)
}

// Factory builds a policy instance for a given capacity in pages. The
// experiment grid uses factories so each (trace, cache size) cell gets a
// fresh policy.
type Factory struct {
	// Name is the policy name, matching Policy.Name().
	Name string
	// New builds a fresh instance with the given capacity in pages.
	New func(capacityPages int) Policy
}

// ValidateCapacity panics on non-positive capacities; shared by all
// constructors. A zero-capacity write buffer is a configuration error, not
// a state to limp through.
func ValidateCapacity(capacityPages int) {
	if capacityPages <= 0 {
		panic(fmt.Sprintf("cache: capacity %d pages, need >= 1", capacityPages))
	}
}

// CheckRequest panics on malformed requests; policies call it first. The
// replayer only produces well-formed requests, so a violation is a bug.
func CheckRequest(req Request) {
	if req.Pages < 1 {
		panic(fmt.Sprintf("cache: request with %d pages", req.Pages))
	}
	if req.LPN < 0 {
		panic(fmt.Sprintf("cache: negative LPN %d", req.LPN))
	}
}
