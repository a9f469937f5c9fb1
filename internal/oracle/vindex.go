package oracle

import (
	"fmt"

	"repro/internal/cache"
)

// runVindex replays a ModeVindex Spec through two instances of the SAME
// fast policy — one with the default indexed (heap-backed) victim
// selection, one switched to the paper-literal linear reference scan via
// cache.LinearScanSelector — and returns the first divergence. The two
// selectors are required to be bit-identical on every externally visible
// decision: per-request hit/miss/insert counts, read-miss pages, eviction
// batches (victim sets, ordering, block binding), idle-destage decisions,
// occupancy conservation, node counts, and any invariant suite the policy
// ships. Scan-cost counters are deliberately NOT diffed: they measure the
// selection mechanisms, which differ by design.
func runVindex(spec Spec) *Divergence {
	idx := buildVindexPolicy(&spec)
	lin := buildVindexPolicy(&spec)
	idx.(cache.LinearScanSelector).SetLinearVictimScan(false)
	lin.(cache.LinearScanSelector).SetLinearVictimScan(true)
	idxIdle, _ := idx.(cache.IdleEvictor)
	linIdle, _ := lin.(cache.IdleEvictor)
	diverge := func(step int, kind, detail string) *Divergence {
		return &Divergence{Spec: spec, Step: step, Kind: kind, Detail: detail}
	}

	for i, req := range spec.Requests {
		prevLen := lin.Len()
		idxRes := idx.Access(req)
		linRes := lin.Access(req)
		// Compare immediately: each result's slices alias its own
		// instance's buffers, overwritten by that instance's next call.
		if d := diffModeResults(idxRes, linRes); d != "" {
			return diverge(i, "result", d)
		}
		evicted := 0
		for _, ev := range linRes.Evictions {
			evicted += len(ev.LPNs) - len(ev.PaddingReads)
		}
		if want := prevLen + linRes.Inserted - evicted; idx.Len() != want || lin.Len() != want {
			return diverge(i, "conservation", fmt.Sprintf(
				"page conservation: had %d, +%d inserted, -%d evicted, want %d; indexed holds %d, linear holds %d",
				prevLen, linRes.Inserted, evicted, want, idx.Len(), lin.Len()))
		}
		if f, o := idx.NodeCount(), lin.NodeCount(); f != o {
			return diverge(i, "membership", fmt.Sprintf("node count: indexed %d, linear %d", f, o))
		}
		if d := checkModeInvariants(idx, lin); d != "" {
			return diverge(i, "invariant", d)
		}

		if spec.IdleEvery > 0 && idxIdle != nil && (i+1)%spec.IdleEvery == 0 {
			now := req.Time + 1
			idxEv, idxOK := idxIdle.EvictIdle(now)
			linEv, linOK := linIdle.EvictIdle(now)
			if idxOK != linOK {
				return diverge(i, "idle", fmt.Sprintf("EvictIdle fired: indexed %v, linear %v", idxOK, linOK))
			}
			if idxOK {
				if d := diffEvictions(0, cacheToOracleEviction(idxEv), cacheToOracleEviction(linEv)); d != "" {
					return diverge(i, "idle", d)
				}
			}
			if f, o := idx.Len(), lin.Len(); f != o {
				return diverge(i, "idle", fmt.Sprintf("post-idle occupancy: indexed %d, linear %d", f, o))
			}
		}
	}

	if f, o := idx.Len(), lin.Len(); f != o {
		return diverge(-1, "membership", fmt.Sprintf("final occupancy: indexed %d, linear %d", f, o))
	}
	if f, o := idx.NodeCount(), lin.NodeCount(); f != o {
		return diverge(-1, "membership", fmt.Sprintf("final node count: indexed %d, linear %d", f, o))
	}
	if d := checkModeInvariants(idx, lin); d != "" {
		return diverge(-1, "invariant", d)
	}
	return nil
}

// buildVindexPolicy constructs one side of the vindex differential from a
// validated ModeVindex Spec.
func buildVindexPolicy(s *Spec) cache.Policy {
	switch s.Policy {
	case "fab":
		return cache.NewFAB(s.CapacityPages, s.PagesPerBlock)
	case "lfu":
		return cache.NewLFU(s.CapacityPages)
	case "pud-lru":
		return cache.NewPUDLRU(s.CapacityPages, s.PagesPerBlock)
	}
	panic("oracle: buildVindexPolicy on unvalidated spec")
}

// diffModeResults compares every externally visible field of one Access
// across the two selection modes.
func diffModeResults(f, o cache.Result) string {
	if f.Hits != o.Hits || f.Misses != o.Misses || f.Inserted != o.Inserted {
		return fmt.Sprintf("counts: indexed hits/misses/inserted %d/%d/%d, linear %d/%d/%d",
			f.Hits, f.Misses, f.Inserted, o.Hits, o.Misses, o.Inserted)
	}
	if d := diffLPNs("read misses", f.ReadMisses, o.ReadMisses); d != "" {
		return d
	}
	if len(f.Evictions) != len(o.Evictions) {
		return fmt.Sprintf("eviction batches: indexed %d, linear %d", len(f.Evictions), len(o.Evictions))
	}
	for bi := range f.Evictions {
		if d := diffEvictions(bi, cacheToOracleEviction(f.Evictions[bi]), cacheToOracleEviction(o.Evictions[bi])); d != "" {
			return d
		}
	}
	return ""
}

// checkModeInvariants runs the policy's self-check on both instances
// when it ships one (both sides are the same type, so both or neither).
func checkModeInvariants(idx, lin cache.Policy) string {
	if ck, ok := idx.(interface{ CheckInvariants() error }); ok {
		if err := ck.CheckInvariants(); err != nil {
			return "indexed: " + err.Error()
		}
	}
	if ck, ok := lin.(interface{ CheckInvariants() error }); ok {
		if err := ck.CheckInvariants(); err != nil {
			return "linear: " + err.Error()
		}
	}
	return ""
}
