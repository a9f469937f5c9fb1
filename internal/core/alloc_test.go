package core

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
)

// TestReqBlockSteadyStateAllocs: once the block/page-node pools and the
// result buffers are warm, Access must not allocate — inserts take nodes
// from the pool, splits relink intrusive page lists, and eviction batches
// are carved from the policy-owned LPN buffer, and emptied PageIndex leaves
// are pooled.
func TestReqBlockSteadyStateAllocs(t *testing.T) {
	c := New(4096)
	rng := rand.New(rand.NewSource(7))
	now := int64(0)
	step := func() {
		now += 1000
		req := cache.Request{
			Time:  now,
			Write: rng.Intn(10) < 7,
			LPN:   int64(rng.Intn(20000)),
			Pages: 1 + rng.Intn(12),
		}
		res := c.Access(req)
		for _, ev := range res.Evictions {
			_ = ev.LPNs[0]
		}
	}
	for i := 0; i < 30000; i++ {
		step()
	}
	if got := testing.AllocsPerRun(2000, step); got > 0 {
		t.Fatalf("Req-block steady-state allocs/req = %v, want 0", got)
	}
}
