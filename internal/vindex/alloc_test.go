package vindex

import (
	"math/rand"
	"testing"
)

// TestHeapSteadyStateAllocs pins the pooling contract: once the heap has
// been churned warm (entries pushed, re-keyed, invalidated and popped), a
// steady-state mix of operations allocates nothing — the same
// AllocsPerRun convention the cache policies enforce.
func TestHeapSteadyStateAllocs(t *testing.T) {
	var h Heap[int]
	rng := rand.New(rand.NewSource(7))
	var tieSeq uint64
	handles := make([]Handle[int], 0, 4096)

	step := func() {
		op := rng.Intn(10)
		// Bound the live population so the warm slice/pool capacities are
		// the steady-state capacities: past the cap a push turns into an
		// invalidate.
		if op < 5 && len(handles) >= 2048 {
			op = 5
		}
		switch {
		case op < 5 || len(handles) == 0:
			tieSeq++
			handles = append(handles, h.Push(int64(rng.Intn(64)), tieSeq, int(tieSeq)))
		case op < 7:
			i := rng.Intn(len(handles))
			h.Invalidate(handles[i])
			handles[i] = handles[len(handles)-1]
			handles = handles[:len(handles)-1]
		case op < 9:
			i := rng.Intn(len(handles))
			tieSeq++
			handles[i] = h.Update(handles[i], int64(rng.Intn(64)), tieSeq, int(tieSeq))
		default:
			if _, ok := h.PopMin(); ok {
				// The popped entry's handle goes stale; finding and
				// dropping it keeps the step allocation-free.
				for i := range handles {
					if !handles[i].Valid() {
						handles[i] = handles[len(handles)-1]
						handles = handles[:len(handles)-1]
						break
					}
				}
			}
		}
	}

	// Warm up past every growth edge: slot array and pool.
	for i := 0; i < 50000; i++ {
		step()
	}

	allocs := testing.AllocsPerRun(5000, step)
	if allocs > 0.05 {
		t.Fatalf("steady-state allocs/op = %v, want 0", allocs)
	}
}
