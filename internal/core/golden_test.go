package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cache"
)

// Golden transcript for Req-block itself: the exact eviction history of a
// scripted stream, locking Algorithm 1's behavior end to end (insertion
// grouping, SRL upgrades, DRL splits, Eq. 1 victim selection, merging).

func reqblockStream() []cache.Request {
	var reqs []cache.Request
	add := func(wr bool, lpn int64, pages int) {
		reqs = append(reqs, cache.Request{
			Time:  int64(len(reqs)+1) * 1_000_000,
			Write: wr, LPN: lpn, Pages: pages,
		})
	}
	add(true, 0, 2)    // A: small hot pair
	add(true, 100, 8)  // B: large block
	add(true, 0, 2)    // hit A → SRL
	add(false, 102, 2) // hit two pages of B → split into DRL
	add(true, 200, 4)  // C
	add(true, 300, 6)  // D: overflows capacity 16 ⇒ evictions begin
	add(true, 400, 3)  // E
	add(false, 0, 1)   // hit A again
	add(true, 500, 5)  // F
	return reqs
}

func TestGoldenReqBlockTranscript(t *testing.T) {
	c := New(16) // δ = 5
	var b strings.Builder
	for _, req := range reqblockStream() {
		res := c.Access(req)
		for _, ev := range res.Evictions {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			for i, lpn := range ev.LPNs {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprint(&b, lpn)
			}
		}
	}
	// Recorded transcript, verified by hand against Algorithm 1:
	//   - at request D (300,6) the cache holds 16 pages; the IRL tail is
	//     B's remainder {100,101,104..107} (6 pages, cnt 3, oldest) — its
	//     Eq. 1 score is the lowest, and it is NOT a split block, so it
	//     leaves alone;
	//   - by request F the next-lowest tail is C {200..203}; the split
	//     {102,103} in DRL survives longer (2 pages, younger), and A stays
	//     pinned in SRL throughout.
	got := b.String()
	want := "100,101,104,105,106,107 200,201,202,203 300,301,302,303,304,305"
	if got != want {
		t.Fatalf("Req-block transcript changed:\n got: %s\nwant: %s", got, want)
	}
	// A's pages survive in SRL; the split pages of B survive in DRL.
	if c.WhereIs(0) != "SRL" || c.WhereIs(102) != "DRL" {
		t.Fatalf("survivors misplaced: %s/%s", c.WhereIs(0), c.WhereIs(102))
	}
	mustInv(t, c)
}

// longStream is a seeded mixed workload whose LPNs spread over zones
// around the first 512-page boundaries, mid-range, and on both sides of
// 2^40, each zone spanning several 512-page windows. A quarter of the
// requests re-touch a small hot window, so SRL upgrades, DRL splits and
// downgraded merges all happen across windows.
func longStream(seed int64, n int) []cache.Request {
	zones := []int64{0, 1<<20 - 700, 1<<40 - 1500, 1 << 40, 1<<46 + 123}
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]cache.Request, n)
	now := int64(0)
	for i := range reqs {
		now += 1 + rng.Int63n(5000)
		span := int64(3000)
		if rng.Intn(4) == 0 {
			span = 96
		}
		reqs[i] = cache.Request{
			Time:  now,
			Write: rng.Intn(10) < 7,
			LPN:   zones[rng.Intn(len(zones))] + rng.Int63n(span),
			Pages: 1 + rng.Intn(16),
		}
	}
	return reqs
}

// TestGoldenReqBlockLongStreamDigest pins Req-block's full result
// transcript (hits, misses, read misses, every eviction batch) over a
// long stream crossing many 512-page windows and reaching beyond 2^40;
// the scripted transcript above stays inside one window.
func TestGoldenReqBlockLongStreamDigest(t *testing.T) {
	cases := []struct {
		name string
		p    cache.Policy
		want string
	}{
		{"Req-block", New(1024), "543d815b5873d0ba"},
		{"Req-block-adaptive", NewAdaptive(1024, 4096), "4d97a1b2ab472dc0"},
	}
	reqs := longStream(17, 40000)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := fnv.New64a()
			var b [8]byte
			put := func(v int64) {
				binary.LittleEndian.PutUint64(b[:], uint64(v))
				h.Write(b[:])
			}
			for _, req := range reqs {
				res := tc.p.Access(req)
				put(int64(res.Hits))
				put(int64(res.Misses))
				put(int64(res.Inserted))
				put(int64(len(res.ReadMisses)))
				for _, lpn := range res.ReadMisses {
					put(lpn)
				}
				for _, ev := range res.Evictions {
					put(int64(len(ev.LPNs)))
					for _, lpn := range ev.LPNs {
						put(lpn)
					}
				}
			}
			if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.want {
				t.Fatalf("long-stream digest changed: got %s, want %s", got, tc.want)
			}
		})
	}
}
