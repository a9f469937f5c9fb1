package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// allFactories returns every baseline policy at a given capacity.
func allFactories() []Factory {
	return []Factory{
		{Name: "LRU", New: func(c int) Policy { return NewLRU(c) }},
		{Name: "FIFO", New: func(c int) Policy { return NewFIFO(c) }},
		{Name: "LFU", New: func(c int) Policy { return NewLFU(c) }},
		{Name: "CFLRU", New: func(c int) Policy { return NewCFLRU(c) }},
		{Name: "CFLRU-wo", New: func(c int) Policy { return NewCFLRUWriteOnly(c) }},
		{Name: "FAB", New: func(c int) Policy { return NewFAB(c, 8) }},
		{Name: "BPLRU", New: func(c int) Policy { return NewBPLRU(c, 8) }},
		{Name: "BPLRU-pad", New: func(c int) Policy { return NewBPLRUWithPadding(c, 8) }},
		{Name: "VBBMS", New: func(c int) Policy { return NewVBBMS(c) }},
		{Name: "PUD-LRU", New: func(c int) Policy { return NewPUDLRU(c, 8) }},
		{Name: "ECR", New: func(c int) Policy { return NewECR(c, 4) }},
	}
}

// TestPoliciesSharedInvariants drives every policy with a random workload
// and checks the universal contracts:
//   - Len() never exceeds CapacityPages().
//   - Hits+Misses == request pages.
//   - Write requests never produce ReadMisses; reads never Insert.
//   - Evicted batches only contain pages that were actually buffered, and
//     an evicted page is no longer counted (model cross-check).
func TestPoliciesSharedInvariants(t *testing.T) {
	for _, f := range allFactories() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			check := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				p := f.New(32)
				resident := map[int64]bool{} // model of buffered pages
				now := int64(0)
				for i := 0; i < 400; i++ {
					now += int64(rng.Intn(1000)) + 1
					req := Request{
						Time:  now,
						Write: rng.Intn(100) < 70,
						LPN:   rng.Int63n(256),
						Pages: 1 + rng.Intn(12),
					}
					res := p.Access(req)
					if res.Hits+res.Misses != req.Pages {
						t.Logf("%s: hits %d + misses %d != pages %d", f.Name, res.Hits, res.Misses, req.Pages)
						return false
					}
					if req.Write && len(res.ReadMisses) != 0 {
						t.Logf("%s: write produced read misses", f.Name)
						return false
					}
					if !req.Write && res.Inserted != 0 && f.Name != "CFLRU" {
						t.Logf("%s: read inserted pages", f.Name)
						return false
					}
					for _, ev := range res.Evictions {
						for _, lpn := range ev.LPNs {
							// A legitimate eviction is a page the model saw,
							// a page of the in-flight request (inserted and
							// evicted within this same Access), or a padding
							// page BPLRU reads from flash.
							inFlight := lpn >= req.LPN && lpn < req.LPN+int64(req.Pages)
							if !resident[lpn] && !inFlight && !contains(ev.PaddingReads, lpn) {
								t.Logf("%s: evicted non-resident page %d", f.Name, lpn)
								return false
							}
							delete(resident, lpn)
						}
					}
					// Sync the model with this request's residency changes.
					lpn := req.LPN
					for j := 0; j < req.Pages; j++ {
						if has(p, lpn) {
							resident[lpn] = true
						} else {
							delete(resident, lpn)
						}
						lpn++
					}
					if p.Len() > p.CapacityPages() {
						t.Logf("%s: len %d > capacity %d", f.Name, p.Len(), p.CapacityPages())
						return false
					}
					if p.Len() != len(resident) {
						t.Logf("%s: len %d != model %d at op %d", f.Name, p.Len(), len(resident), i)
						return false
					}
					if p.NodeCount() < 0 || p.NodeBytes() <= 0 {
						return false
					}
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// has dispatches to the policy-specific Contains helper.
func has(p Policy, lpn int64) bool {
	switch c := p.(type) {
	case *LRU:
		return c.Contains(lpn)
	case *LFU:
		return c.Contains(lpn)
	case *CFLRU:
		return c.Contains(lpn)
	case *BPLRU:
		return c.Contains(lpn)
	case *VBBMS:
		return c.Contains(lpn)
	case *PUDLRU:
		return c.Contains(lpn)
	case *ECR:
		return c.Contains(lpn)
	case *FAB:
		g := c.groups.Get(lpn / c.pagesPerBlock)
		return g != nil && g.Value.pages.has(lpn)
	default:
		return false
	}
}

func contains(s []int64, v int64) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// TestPoliciesDeterminism: the same request stream must produce identical
// results on two fresh instances (policies are pure state machines).
func TestPoliciesDeterminism(t *testing.T) {
	for _, f := range allFactories() {
		rng := rand.New(rand.NewSource(42))
		reqs := make([]Request, 300)
		now := int64(0)
		for i := range reqs {
			now += int64(rng.Intn(500)) + 1
			reqs[i] = Request{
				Time:  now,
				Write: rng.Intn(10) < 7,
				LPN:   rng.Int63n(200),
				Pages: 1 + rng.Intn(10),
			}
		}
		a, b := f.New(64), f.New(64)
		for i, req := range reqs {
			ra, rb := a.Access(req), b.Access(req)
			if ra.Hits != rb.Hits || ra.Misses != rb.Misses || len(ra.Evictions) != len(rb.Evictions) {
				t.Fatalf("%s: nondeterministic at request %d", f.Name, i)
			}
			for j := range ra.Evictions {
				ea, eb := ra.Evictions[j], rb.Evictions[j]
				if len(ea.LPNs) != len(eb.LPNs) {
					t.Fatalf("%s: eviction batch sizes differ at request %d", f.Name, i)
				}
				for k := range ea.LPNs {
					if ea.LPNs[k] != eb.LPNs[k] {
						t.Fatalf("%s: eviction contents differ at request %d", f.Name, i)
					}
				}
			}
		}
	}
}
