package cache

import (
	"math/rand"
	"testing"
)

// steadyStateAllocs drives a policy through a warmup phase (filling it past
// capacity so evictions and pooling reach steady state), then measures the
// allocations of one further batch of mixed traffic with AllocsPerRun.
func steadyStateAllocs(t *testing.T, p Policy) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	now := int64(0)
	step := func() {
		now += 1000
		req := Request{
			Time:  now,
			Write: rng.Intn(10) < 7,
			LPN:   int64(rng.Intn(20000)),
			Pages: 1 + rng.Intn(12),
		}
		res := p.Access(req)
		// Consume the result like the replayer does, within its validity
		// window (before the next Access).
		for _, ev := range res.Evictions {
			_ = ev.LPNs[0]
		}
	}
	// Warm up: enough traffic to fill the cache several times over, so the
	// node pools and result buffers reach their high-water marks.
	for i := 0; i < 30000; i++ {
		step()
	}
	return testing.AllocsPerRun(2000, step)
}

// The request path must not allocate once pools and buffers are warm: pages
// are found through the shared PageIndex, whose emptied leaves are pooled,
// membership lives in reusable bitmaps or pooled nodes, and eviction
// batches are carved from policy-owned buffers.
func TestLRUSteadyStateAllocs(t *testing.T) {
	if got := steadyStateAllocs(t, NewLRU(4096)); got > 0 {
		t.Fatalf("LRU steady-state allocs/req = %v, want 0", got)
	}
}

func TestVBBMSSteadyStateAllocs(t *testing.T) {
	if got := steadyStateAllocs(t, NewVBBMS(4096)); got > 0 {
		t.Fatalf("VBBMS steady-state allocs/req = %v, want 0", got)
	}
}

func TestBPLRUSteadyStateAllocs(t *testing.T) {
	if got := steadyStateAllocs(t, NewBPLRU(4096, 64)); got > 0 {
		t.Fatalf("BPLRU steady-state allocs/req = %v, want 0", got)
	}
}

func TestFABSteadyStateAllocs(t *testing.T) {
	if got := steadyStateAllocs(t, NewFAB(4096, 64)); got > 0 {
		t.Fatalf("FAB steady-state allocs/req = %v, want 0", got)
	}
}

func TestLFUSteadyStateAllocs(t *testing.T) {
	if got := steadyStateAllocs(t, NewLFU(4096)); got > 0 {
		t.Fatalf("LFU steady-state allocs/req = %v, want 0", got)
	}
}

func TestPUDLRUSteadyStateAllocs(t *testing.T) {
	if got := steadyStateAllocs(t, NewPUDLRU(4096, 64)); got > 0 {
		t.Fatalf("PUD-LRU steady-state allocs/req = %v, want 0", got)
	}
}

func TestCFLRUSteadyStateAllocs(t *testing.T) {
	if got := steadyStateAllocs(t, NewCFLRU(4096)); got > 0 {
		t.Fatalf("CFLRU steady-state allocs/req = %v, want 0", got)
	}
	if got := steadyStateAllocs(t, NewCFLRUWriteOnly(4096)); got > 0 {
		t.Fatalf("write-only CFLRU steady-state allocs/req = %v, want 0", got)
	}
}

func TestReadAheadSteadyStateAllocs(t *testing.T) {
	if got := steadyStateAllocs(t, NewReadAhead(NewLRU(4096), 1024, 8)); got > 0 {
		t.Fatalf("ReadAhead steady-state allocs/req = %v, want 0", got)
	}
}

func TestECRSteadyStateAllocs(t *testing.T) {
	if got := steadyStateAllocs(t, NewECR(4096, 8)); got > 0 {
		t.Fatalf("ECR steady-state allocs/req = %v, want 0", got)
	}
}

// The linear reference scans must stay zero-alloc too: the capacity
// benchmarks difference the two modes, and an allocating baseline would
// fold GC time into the comparison. Capacities run smaller here — the
// scans are O(n) per eviction by design, and the alloc count does not
// depend on n.
func TestLinearScanSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		name string
		pol  Policy
	}{
		{"FAB", NewFAB(1024, 64)},
		{"LFU", NewLFU(1024)},
		{"PUD-LRU", NewPUDLRU(1024, 64)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.pol.(LinearScanSelector).SetLinearVictimScan(true)
			if got := steadyStateAllocs(t, tc.pol); got > 0 {
				t.Fatalf("%s linear-scan steady-state allocs/req = %v, want 0", tc.name, got)
			}
		})
	}
}
