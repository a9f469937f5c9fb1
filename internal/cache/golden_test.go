package cache

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
)

// Golden-sequence tests: a fixed request stream drives each policy and the
// exact eviction transcript is compared against a recorded expectation.
// These lock the replacement behavior down to the page — any change to a
// policy's ordering rules shows up as a diff here.

// goldenStream is a small scripted workload with rewrites, reads and a
// stream of one-touch data.
func goldenStream() []Request {
	var reqs []Request
	add := func(wr bool, lpn int64, pages int) {
		reqs = append(reqs, Request{
			Time:  int64(len(reqs)) * 1000,
			Write: wr, LPN: lpn, Pages: pages,
		})
	}
	add(true, 0, 2)   // hot pair
	add(true, 100, 4) // cold batch
	add(true, 0, 2)   // rewrite hot
	add(true, 200, 3) // cold batch
	add(false, 1, 1)  // read hit
	add(true, 300, 4) // overflow begins (capacity 12)
	add(true, 400, 2)
	add(false, 0, 2) // read hot again
	add(true, 500, 4)
	return reqs
}

// transcript renders the eviction history compactly: one token per
// eviction op listing its pages.
func transcript(p Policy, reqs []Request) string {
	var b strings.Builder
	for _, req := range reqs {
		res := p.Access(req)
		for _, ev := range res.Evictions {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			if ev.CleanDrop {
				b.WriteByte('~')
			}
			for i, lpn := range ev.LPNs {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprint(&b, lpn)
			}
		}
	}
	return b.String()
}

func TestGoldenEvictionTranscripts(t *testing.T) {
	cases := []struct {
		name   string
		policy Policy
		want   string
	}{
		// Capacity 12 pages everywhere; block-granularity policies use
		// 4-page blocks.
		{"LRU", NewLRU(12),
			// 0,1 rewritten at t=2 and page 1 read at t=4, so the cold
			// batches go in insertion order: 100..103, then 200..202.
			"100 101 102 103 200 201 202"},
		{"FIFO", NewFIFO(12),
			// Pure insertion order: the hot pair goes first despite reuse.
			"0 1 100 101 102 103 200"},
		{"BPLRU", NewBPLRU(12, 4),
			// Block LRU evicts block 100..103 first; block 300..303 was
			// written fully sequentially, so LRU compensation parks it at
			// the tail and it goes next — before the older blocks.
			"100,101,102,103 300,301,302,303"},
		{"VBBMS", NewVBBMS(12),
			// Every request here is ≤ 4 pages < the 5-page sequential
			// bound, so all traffic shares the 7-page random region and
			// evictions are 3-page-aligned virtual blocks (or fragments).
			"100,101 102,103 200 201,202 0,1 300,301,302"},
		{"PUD-LRU", NewPUDLRU(12, 4),
			// Largest predicted update distance first: the cold 100-block
			// ties the hot 0-block but sits nearer the tail; the hot pair
			// ages out next because it was never updated after t=2.
			"100,101,102,103 0,1 200,201,202"},
		{"LFU", NewLFU(12),
			// The hot pair reaches count 3+; everything else sits in the
			// frequency-1 bucket and leaves LRU-within-bucket.
			"100 101 102 103 200 201 202"},
		{"CFLRU", NewCFLRU(12),
			// All buffered pages are dirty (the reads hit), so CFLRU
			// behaves as plain LRU here.
			"100 101 102 103 200 201 202"},
		{"ECR", NewECR(12, 4),
			// No device view: fallback round-robin over the four channel
			// lists, evicting each channel's LRU page in turn.
			"100 101 102 103 200 201 202"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := transcript(tc.policy, goldenStream())
			if got != tc.want {
				t.Fatalf("eviction transcript changed:\n got: %s\nwant: %s", got, tc.want)
			}
		})
	}
}

// TestGoldenListOrderLRU locks the internal recency order, not only the
// evictions.
func TestGoldenListOrderLRU(t *testing.T) {
	c := NewLRU(12)
	for _, req := range goldenStream()[:5] {
		c.Access(req)
	}
	var order []int64
	for n := c.order.Head(); n != nil; n = n.Next() {
		order = append(order, n.Value.lpn)
	}
	// Only page 1 was read at t=4, so it alone moved ahead of the t=3
	// batch; page 0 still sits at its t=2 rewrite position.
	want := []int64{1, 202, 201, 200, 0, 103, 102, 101, 100}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// longStreamZones are the LPN neighbourhoods the long-stream pins draw
// from: around the first 512-page boundaries, mid-range, just below and
// above 2^40, and far beyond it. Each zone spans several 512-page
// windows, so consecutive requests and block evictions cross them often.
var longStreamZones = []int64{0, 1<<20 - 700, 1<<40 - 1500, 1 << 40, 1<<46 + 123}

// longStream is a seeded mixed workload over longStreamZones: 70% writes,
// 1–16 pages per request, a quarter of the requests re-touching a small
// hot window so hits, splits and promotions happen alongside the misses.
func longStream(seed int64, n int) []Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]Request, n)
	now := int64(0)
	for i := range reqs {
		now += 1 + rng.Int63n(5000)
		zone := longStreamZones[rng.Intn(len(longStreamZones))]
		span := int64(3000)
		if rng.Intn(4) == 0 {
			span = 96
		}
		reqs[i] = Request{
			Time:  now,
			Write: rng.Intn(10) < 7,
			LPN:   zone + rng.Int63n(span),
			Pages: 1 + rng.Intn(16),
		}
	}
	return reqs
}

// resultDigest folds everything a Result reports, in order, into h.
func resultDigest(h hash.Hash64, res Result) {
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	putAll := func(tag int64, lpns []int64) {
		put(tag)
		put(int64(len(lpns)))
		for _, lpn := range lpns {
			put(lpn)
		}
	}
	put(int64(res.Hits))
	put(int64(res.Misses))
	put(int64(res.Inserted))
	putAll(1, res.ReadMisses)
	putAll(2, res.Prefetches)
	putAll(3, res.Bypass)
	for _, ev := range res.Evictions {
		putAll(4, ev.LPNs)
		putAll(5, ev.PaddingReads)
		flags := int64(0)
		if ev.BlockBound {
			flags |= 1
		}
		if ev.CleanDrop {
			flags |= 2
		}
		if ev.HasChannelHint {
			flags |= 4
		}
		put(flags)
		put(int64(ev.Channel))
	}
}

// TestGoldenLongStreamDigests pins every constructor's full result
// transcript over a long seeded stream whose LPNs cross many 512-page
// windows and reach beyond 2^40. The short scripted transcripts above
// stay inside one window; these catch any index or ordering change that
// only shows across windows or at large LPNs.
func TestGoldenLongStreamDigests(t *testing.T) {
	cases := []struct {
		name string
		mk   func() Policy
		want string
	}{
		{"LRU", func() Policy { return NewLRU(1024) }, "9a54f1a32d23f3d6"},
		{"FIFO", func() Policy { return NewFIFO(1024) }, "13c0a7c35b18ec80"},
		{"CFLRU", func() Policy { return NewCFLRU(1024) }, "edec8eb3e7557d85"},
		// Write-only CFLRU buffers only dirty pages, so it never finds a
		// clean victim and matches LRU exactly.
		{"CFLRU-wo", func() Policy { return NewCFLRUWriteOnly(1024) }, "9a54f1a32d23f3d6"},
		{"LFU", func() Policy { return NewLFU(1024) }, "602b5871df98484a"},
		{"ECR", func() Policy { return NewECR(1024, 8) }, "4a2667ff4f73c1c3"},
		{"FAB", func() Policy { return NewFAB(1024, 64) }, "42309a6922351e0a"},
		{"BPLRU", func() Policy { return NewBPLRU(1024, 64) }, "0b11df9d2637932e"},
		{"BPLRU-pad", func() Policy { return NewBPLRUWithPadding(1024, 64) }, "3332e205b6f348fc"},
		{"PUD-LRU", func() Policy { return NewPUDLRU(1024, 64) }, "eb266fcf73809bf5"},
		{"VBBMS", func() Policy { return NewVBBMS(1024) }, "e67e1caf1c4b4ca7"},
		{"LRU+RA", func() Policy { return NewReadAhead(NewLRU(1024), 256, 8) }, "804807c8dbb68162"},
	}
	reqs := longStream(17, 40000)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.mk()
			h := fnv.New64a()
			for _, req := range reqs {
				resultDigest(h, p.Access(req))
			}
			if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.want {
				t.Fatalf("long-stream digest changed: got %s, want %s", got, tc.want)
			}
		})
	}
}
