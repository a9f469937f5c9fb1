package cache

import "testing"

// The FAB, LFU and PUD-LRU tie-break rules are paper-visible contracts,
// not implementation accidents: FAB breaks equal-size ties toward the
// oldest group (the tail-ward strict-> scan of the paper's linear walk),
// LFU breaks equal-frequency ties toward the entry least recently
// inserted OR promoted (the frequency-bucket tail), and PUD-LRU breaks
// equal-PUD ties toward the block least recently updated. The tables
// below construct deliberate ties and pin the winner of the indexed
// victim heap, the policies' only victim path; the oracle package's
// full-scan models are held to the same rules by ssdcheck.

type tieCase struct {
	name string
	mk   func() Policy
	// script runs first; the final request must trigger exactly one
	// eviction batch with these victims.
	script []Request
	final  Request
	want   []int64
}

func runTieCases(t *testing.T, cases []tieCase) {
	t.Helper()
	for _, tc := range cases {
		// The "indexed" leaf names the heap path and keeps the subtest
		// names of earlier commits, so runs compare across them.
		t.Run(tc.name+"/indexed", func(t *testing.T) {
			p := tc.mk()
			for _, req := range tc.script {
				p.Access(req)
			}
			res := p.Access(tc.final)
			if len(res.Evictions) != 1 {
				t.Fatalf("eviction batches: %+v, want exactly 1", res.Evictions)
			}
			got := res.Evictions[0].LPNs
			if len(got) != len(tc.want) {
				t.Fatalf("evicted %v, want %v", got, tc.want)
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("evicted %v, want %v", got, tc.want)
				}
			}
		})
	}
}

func TestFABTieBreakContract(t *testing.T) {
	runTieCases(t, []tieCase{
		{
			// Two full-size ties; creation order decides.
			name:   "size tie, oldest group wins",
			mk:     func() Policy { return NewFAB(4, 2) },
			script: []Request{w(0, 0, 2), w(1, 2, 2)},
			final:  w(2, 8, 1),
			want:   []int64{0, 1},
		},
		{
			// The tie forms incrementally: both groups grow to 3 pages
			// across interleaved writes, so the index must track every
			// size change, not just the insert-time size.
			name: "tie formed by later growth, oldest creation wins",
			mk:   func() Policy { return NewFAB(8, 4) },
			script: []Request{
				w(0, 0, 2), w(1, 4, 2), // block 0: {0,1}, block 1: {4,5}
				w(2, 2, 1), w(3, 6, 1), // both grow to 3
				w(4, 8, 2), // block 2: 2 pages; buffer now full at 8
			},
			final: w(5, 12, 1),
			want:  []int64{0, 1, 2},
		},
		{
			// A strictly larger group wins regardless of age.
			name:   "strictly larger newer group beats older smaller",
			mk:     func() Policy { return NewFAB(5, 4) },
			script: []Request{w(0, 0, 2), w(1, 4, 3)},
			final:  w(2, 8, 1),
			want:   []int64{4, 5, 6},
		},
	})
}

func TestLFUTieBreakContract(t *testing.T) {
	runTieCases(t, []tieCase{
		{
			// Both pages at frequency 1: insertion order decides.
			name:   "freq tie, oldest insertion wins",
			mk:     func() Policy { return NewLFU(2) },
			script: []Request{w(0, 1, 1), w(1, 2, 1)},
			final:  w(2, 3, 1),
			want:   []int64{1},
		},
		{
			// Promotion re-stamps recency within the new frequency class:
			// page 2 reaches frequency 2 before page 1 does, so on the tie
			// page 2 is the older entry and is evicted — even though page 1
			// was inserted first.
			name:   "promotion re-stamps the tie order",
			mk:     func() Policy { return NewLFU(2) },
			script: []Request{w(0, 1, 1), w(1, 2, 1), w(2, 2, 1), w(3, 1, 1)},
			final:  w(4, 3, 1),
			want:   []int64{2},
		},
		{
			// Frequency dominates: a hot page never loses to colder ones,
			// and the remaining freq-1 tie falls back to insertion order.
			name:   "lower frequency beats recency, then age breaks the tie",
			mk:     func() Policy { return NewLFU(3) },
			script: []Request{w(0, 1, 1), w(1, 2, 1), w(2, 2, 1), w(3, 2, 1), w(4, 3, 1)},
			final:  w(5, 4, 1),
			want:   []int64{1},
		},
	})
}

func TestPUDLRUTieBreakContract(t *testing.T) {
	runTieCases(t, []tieCase{
		{
			// At t=10 block 0 (inserted at 9, last updated at 10) has span
			// 1 and block 1 (inserted and updated at 10) has span 0,
			// clamped to 1: both sit in update-count bucket 2 at PUD 1/2.
			// Block 1 was updated first, so it goes — although block 0
			// has the smaller insertTime+lastUpdate sum, which orders the
			// bucket's heap everywhere above the clamp.
			name:   "clamped span tie, least recently updated wins",
			mk:     func() Policy { return NewPUDLRU(4, 4) },
			script: []Request{w(9, 0, 1), w(10, 4, 2), w(10, 1, 1)},
			final:  w(10, 8, 1),
			want:   []int64{4, 5},
		},
	})
}
