// Package oracle holds paper-literal, clarity-over-speed reference
// implementations of the cache policies and the FTL, plus a differential
// runner that replays the same randomized workload through the optimized
// implementations (internal/cache, internal/core, internal/ftl) and these
// oracles in lockstep, diffing every externally visible decision.
//
// Every golden test in this repository was generated from the optimized
// code itself, so a shared misreading of the paper would survive them. The
// oracles are a second, independent derivation of the same spec: plain
// slices, linear scans, no pooling, no shared code with the fast paths
// beyond the request/transition types in internal/cache. When both
// derivations agree on hits, eviction victim sets, destage order, list
// membership and the final FTL mapping across randomized campaigns, a
// shared misreading becomes much less likely — the discipline behind
// differential validation of storage-policy simulators (see
// docs/TESTING.md for the workflow).
//
// The package deliberately trades speed for obviousness: everything is
// O(cache size) per page where the fast implementations are O(1). Oracles
// are for tests and cmd/ssdcheck campaigns, never for the replay hot path.
package oracle

import "repro/internal/cache"

// Eviction is one victim batch flushed by an oracle policy, mirroring
// cache.Eviction's externally visible fields.
type Eviction struct {
	// LPNs are the flushed pages, in the same canonical order the fast
	// implementation produces (ascending for batch policies, single page
	// for LRU).
	LPNs []int64
	// BlockBound marks batches that must land on one physical block
	// (BPLRU, FAB).
	BlockBound bool
	// PaddingReads are the flash reads a padded BPLRU flush performs
	// first; nil when padding is off or nothing was missing.
	PaddingReads []int64
}

// Result mirrors the externally visible fields of cache.Result for one
// request.
type Result struct {
	Hits, Misses, Inserted int
	ReadMisses             []int64
	Evictions              []Eviction
}

// Policy is the oracle-side policy contract: the same decision surface as
// cache.Policy plus a self-check hook. Every oracle policy implements it.
type Policy interface {
	// Name identifies the policy, matching the fast implementation.
	Name() string
	// Access processes one request and returns its effects.
	Access(req cache.Request) Result
	// EvictIdle nominates one idle/destage victim batch, with the same
	// more-than-half-full gating as the fast implementations; a policy
	// whose fast side has no cache.IdleEvictor never nominates one.
	EvictIdle(now int64) (Eviction, bool)
	// Len returns the buffered page count.
	Len() int
	// NodeCount returns the list-node (block) count, diffed against the
	// fast implementation's NodeCount.
	NodeCount() int
	// CheckInvariants validates the oracle's own bookkeeping: occupancy
	// within capacity, no page buffered twice.
	CheckInvariants() error
}

// Mutation selects a deliberately seeded bug in the Req-block oracle. The
// mutation smoke test (and `ssdcheck -mutation`) proves the differential
// harness has teeth: each mutant must be caught by the runner and shrunk
// to a tiny repro. An empty mutation is the correct oracle.
type Mutation string

const (
	// MutNone is the correct oracle.
	MutNone Mutation = ""
	// MutDeltaOffByOne flips the small-block test at the δ boundary from
	// PageNum ≤ δ to PageNum < δ: blocks of exactly δ pages are wrongly
	// treated as large and split on hits.
	MutDeltaOffByOne Mutation = "delta-off-by-one"
	// MutFreqDenominator drops the PageNum factor from Eq. 1, scoring
	// victims by AccessCnt / (Tcur − Tinsert) instead of
	// AccessCnt / (PageNum × (Tcur − Tinsert)).
	MutFreqDenominator Mutation = "freq-denominator"
	// MutSkipSRLPromotion never promotes hit small blocks to the SRL
	// head; they keep their position (and list) unchanged.
	MutSkipSRLPromotion Mutation = "skip-srl-promotion"
)

// Mutations lists the seeded bugs the mutation smoke test must catch.
var Mutations = []Mutation{MutDeltaOffByOne, MutFreqDenominator, MutSkipSRLPromotion}
