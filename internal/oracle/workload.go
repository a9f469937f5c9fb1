package oracle

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/cache"
)

// Policies lists the policies the differential runner covers: the four
// paper policies and the two heap-indexed comparators.
var Policies = []string{"req-block", "lru", "bplru", "fab", "lfu", "pud-lru"}

// ModeVindex selects the vindex differential: a heap-indexed fast policy
// against its full-scan oracle, in the same lockstep loop as the classic
// mode but without the FTL pair, so capacities and address ranges can
// run larger (GenerateVindex).
const ModeVindex = "vindex"

// VictimPolicies lists the policies whose victims come from a vindex
// heap — the ModeVindex policy set. ECR and Req-block route through
// stateless vindex argmin selectors instead of a heap, and VBBMS pops its
// region's list tail.
var VictimPolicies = []string{"fab", "lfu", "pud-lru"}

// Spec is one fully self-contained differential workload: policy,
// configuration and request stream. A Spec determines a run completely,
// so a saved Spec replays bit-identically — the repro corpus under
// testdata/repros is a directory of these, serialized as JSON.
type Spec struct {
	// Seed is the generator seed the spec came from (informational once
	// the requests are materialized).
	Seed int64 `json:"seed"`
	// Mode selects the differential: empty for the classic fast-vs-oracle
	// run, ModeVindex for the same run without the FTL pair, ModeGCSched
	// for the GC-scheduling run.
	Mode string `json:"mode,omitempty"`
	// Policy is one of Policies (classic mode) or VictimPolicies
	// (ModeVindex).
	Policy string `json:"policy"`
	// CapacityPages is the write-buffer capacity.
	CapacityPages int `json:"capacity_pages"`
	// Delta, Merge, Recency configure Req-block (ignored by the others).
	Delta   int  `json:"delta,omitempty"`
	Merge   bool `json:"merge,omitempty"`
	Recency bool `json:"recency,omitempty"`
	// PagesPerBlock configures BPLRU/FAB/PUD-LRU grouping (ignored by the
	// others).
	PagesPerBlock int `json:"pages_per_block,omitempty"`
	// Padding selects the padded BPLRU variant.
	Padding bool `json:"padding,omitempty"`
	// IdleEvery, when positive, probes EvictIdle on both sides after
	// every IdleEvery-th request — the destage-order diff.
	IdleEvery int `json:"idle_every,omitempty"`
	// Mutation arms a seeded bug in the oracle (mutation smoke test).
	Mutation Mutation `json:"mutation,omitempty"`
	// Requests is the request stream, times non-decreasing.
	Requests []cache.Request `json:"requests"`
}

// Validate rejects specs the runner cannot replay.
func (s *Spec) Validate() error {
	switch s.Mode {
	case "":
		if !slices.Contains(Policies, s.Policy) {
			return fmt.Errorf("oracle: unknown policy %q", s.Policy)
		}
	case ModeVindex:
		if !slices.Contains(VictimPolicies, s.Policy) {
			return fmt.Errorf("oracle: unknown vindex policy %q", s.Policy)
		}
		if s.Mutation != MutNone {
			return fmt.Errorf("oracle: mutations target the oracle, not the vindex differential")
		}
	case ModeGCSched:
		switch s.Policy {
		case "striped", "bound", "mixed", "trim-mix":
		default:
			return fmt.Errorf("oracle: unknown gcsched flavor %q", s.Policy)
		}
		if s.Mutation != MutNone {
			return fmt.Errorf("oracle: mutations target the oracle, not the gcsched differential")
		}
	default:
		return fmt.Errorf("oracle: unknown mode %q", s.Mode)
	}
	if s.CapacityPages < 1 {
		return fmt.Errorf("oracle: capacity %d, need >= 1", s.CapacityPages)
	}
	if s.Policy == "req-block" && s.Delta < 1 {
		return fmt.Errorf("oracle: delta %d, need >= 1", s.Delta)
	}
	if (s.Policy == "bplru" || s.Policy == "fab" || s.Policy == "pud-lru") && s.PagesPerBlock < 1 {
		return fmt.Errorf("oracle: pages per block %d, need >= 1", s.PagesPerBlock)
	}
	for i, r := range s.Requests {
		if r.Pages < 1 || r.LPN < 0 {
			return fmt.Errorf("oracle: request %d malformed (%+v)", i, r)
		}
		if i > 0 && r.Time < s.Requests[i-1].Time {
			return fmt.Errorf("oracle: request %d time goes backwards", i)
		}
	}
	return nil
}

// MaxLPN returns one past the highest page any request touches.
func (s *Spec) MaxLPN() int64 {
	var m int64
	for _, r := range s.Requests {
		if end := r.LPN + int64(r.Pages); end > m {
			m = end
		}
	}
	return m
}

// ftlLogicalPages is the logical size of the differential FTL pair (the
// fast side uses the tiny geometry in diff.go). Generated workloads stay
// inside it so every eviction batch can be flushed.
const ftlLogicalPages = 96

// maxGenPages bounds generated request sizes: large enough to exceed any
// generated δ (so splits happen), small enough that mid-size caches see
// real eviction pressure.
const maxGenPages = 12

// Generate derives a deterministic randomized workload from a seed. All
// tunables — capacity, δ, merge/recency ablations, block size, the
// read/write mix, spatial locality and the idle-probe cadence — come from
// the seed, so a campaign over a seed range sweeps the configuration
// space too. The same (seed, policy, n) always yields the same Spec.
func Generate(seed int64, policy string, n int) Spec {
	rng := rand.New(rand.NewSource(seed))
	s := Spec{
		Seed:          seed,
		Policy:        policy,
		CapacityPages: 12 + rng.Intn(53), // 12..64 pages
		Delta:         1 + rng.Intn(7),   // δ in 1..7, straddling request sizes
		Merge:         rng.Intn(4) != 0,  // ablations appear but rarely
		Recency:       rng.Intn(4) != 0,
		PagesPerBlock: []int{2, 4, 8}[rng.Intn(3)],
		Padding:       rng.Intn(8) == 0,
	}
	if rng.Intn(2) == 0 {
		s.IdleEvery = 13 + rng.Intn(25)
	}
	// The LPN range sets the reuse rate: a touch above capacity keeps the
	// buffer full and hit-rich, a few multiples makes eviction churn
	// dominate. Block-aligned so relabeling metamorphics can shift it.
	lpnRange := int64(s.CapacityPages * (1 + rng.Intn(3)))
	lpnRange -= lpnRange % int64(s.PagesPerBlock)
	if lpnRange < int64(s.PagesPerBlock) {
		lpnRange = int64(s.PagesPerBlock)
	}
	if lpnRange > ftlLogicalPages-maxGenPages {
		lpnRange = ftlLogicalPages - maxGenPages
	}
	writePct := 60 + rng.Intn(36) // 60..95 percent writes
	now := int64(0)
	s.Requests = make([]cache.Request, 0, n)
	for i := 0; i < n; i++ {
		now += 1 + int64(rng.Intn(5000))
		pages := 1 + rng.Intn(maxGenPages)
		if int64(pages) > lpnRange {
			pages = int(lpnRange)
		}
		s.Requests = append(s.Requests, cache.Request{
			Time:  now,
			Write: rng.Intn(100) < writePct,
			LPN:   rng.Int63n(lpnRange - int64(pages) + 1),
			Pages: pages,
		})
	}
	return s
}

// GenerateVindex derives a deterministic randomized ModeVindex workload.
// No FTL rides along in this mode, so capacities and address ranges run
// larger than Generate's: enough churn that the heaps see thousands of
// push/update/invalidate/pop cycles and pooled-node reuse, while
// ties stay common (the address range is a small multiple of capacity).
// The wider ranges matter: a PUD-LRU cross-bucket tie broken the wrong
// way shows here at seed 6, while Generate, bound to the FTL's logical
// pages, first shows it at seed 199.
func GenerateVindex(seed int64, policy string, n int) Spec {
	rng := rand.New(rand.NewSource(seed))
	s := Spec{
		Seed:          seed,
		Mode:          ModeVindex,
		Policy:        policy,
		CapacityPages: 16 + rng.Intn(113), // 16..128 pages
		PagesPerBlock: []int{2, 4, 8}[rng.Intn(3)],
	}
	if rng.Intn(2) == 0 {
		// Probed only for policies that implement IdleEvictor (FAB).
		s.IdleEvery = 13 + rng.Intn(25)
	}
	lpnRange := int64(s.CapacityPages * (1 + rng.Intn(4)))
	lpnRange -= lpnRange % int64(s.PagesPerBlock)
	if lpnRange < int64(s.PagesPerBlock) {
		lpnRange = int64(s.PagesPerBlock)
	}
	writePct := 60 + rng.Intn(36) // 60..95 percent writes
	now := int64(0)
	s.Requests = make([]cache.Request, 0, n)
	for i := 0; i < n; i++ {
		now += 1 + int64(rng.Intn(5000))
		pages := 1 + rng.Intn(maxGenPages)
		if int64(pages) > lpnRange {
			pages = int(lpnRange)
		}
		s.Requests = append(s.Requests, cache.Request{
			Time:  now,
			Write: rng.Intn(100) < writePct,
			LPN:   rng.Int63n(lpnRange - int64(pages) + 1),
			Pages: pages,
		})
	}
	return s
}
