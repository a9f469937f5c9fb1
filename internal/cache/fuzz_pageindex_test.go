package cache

import (
	"math"
	"testing"
)

// fuzzVal is the PageIndex payload in FuzzPageIndex; each Put stores a
// fresh one so a stale slot would show as the wrong pointer.
type fuzzVal struct{ key int64 }

// pageIndexBases are the neighbourhoods FuzzPageIndex draws keys from:
// both sides of the first leaf boundaries, far-apart leaves, and keys at
// and above 1<<62 up to the largest int64.
var pageIndexBases = []int64{0, 512, 1024, 1 << 20, 1 << 40, 1 << 62, math.MaxInt64 - 7}

// FuzzPageIndex drives PageIndex against a map shadow: every Put, Get,
// Delete and Range must agree with the map, Len and the directory size
// must match after every operation, and draining every key must release
// every leaf so that refilling takes them all from the pool.
func FuzzPageIndex(f *testing.F) {
	f.Add([]byte{0x00, 0x07, 0x00, 0x08, 0x04, 0x07, 0x02, 0x07, 0x03, 0x00})
	f.Add([]byte{0x10, 0x0f, 0x08, 0x00, 0x14, 0x0f, 0x16, 0x00, 0x13, 0x00})
	f.Add([]byte{0x14, 0x01, 0x18, 0x0f, 0x1c, 0x03, 0x15, 0x01, 0x1a, 0x0f, 0x03, 0x00})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var x PageIndex[fuzzVal]
		shadow := make(map[int64]*fuzzVal)
		for i := 0; i+1 < len(ops); i += 2 {
			// Low two bits pick the operation, the rest a base; the
			// second byte is an offset in [-8, 7] around it.
			base := pageIndexBases[int(ops[i]>>2)%len(pageIndexBases)]
			key := base + int64(ops[i+1]&0x0f) - 8
			if key < 0 {
				key = -key
			}
			switch ops[i] & 3 {
			case 0:
				v := &fuzzVal{key: key}
				x.Put(key, v)
				shadow[key] = v
			case 1:
				if got := x.Get(key); got != shadow[key] {
					t.Fatalf("Get(%d) = %p, shadow %p", key, got, shadow[key])
				}
			case 2:
				x.Delete(key)
				delete(shadow, key)
			case 3:
				seen := 0
				x.Range(func(k int64, v *fuzzVal) bool {
					if shadow[k] != v {
						t.Fatalf("Range yielded %d=%p, shadow %p", k, v, shadow[k])
					}
					seen++
					return true
				})
				if seen != len(shadow) {
					t.Fatalf("Range yielded %d keys, shadow has %d", seen, len(shadow))
				}
				calls := 0
				x.Range(func(int64, *fuzzVal) bool { calls++; return false })
				if want := min(1, len(shadow)); calls != want {
					t.Fatalf("Range after false: %d calls, want %d", calls, want)
				}
			}
			checkPageIndex(t, &x, shadow)
		}

		keys := make([]int64, 0, len(shadow))
		for k := range shadow {
			keys = append(keys, k)
		}
		for _, k := range keys {
			x.Delete(k)
		}
		if x.Len() != 0 || len(x.dir) != 0 {
			t.Fatalf("drained index: Len %d, %d directory entries", x.Len(), len(x.dir))
		}
		refill := func() {
			for _, k := range keys {
				x.Put(k, shadow[k])
			}
			for _, k := range keys {
				x.Delete(k)
			}
		}
		if allocs := testing.AllocsPerRun(3, refill); allocs != 0 {
			t.Fatalf("refill of %d keys allocated %v times", len(keys), allocs)
		}
		for _, k := range keys {
			x.Put(k, shadow[k])
		}
		checkPageIndex(t, &x, shadow)
	})
}

// checkPageIndex requires x to hold exactly shadow's keys and values, in
// as many leaves as shadow has distinct key>>9 windows.
func checkPageIndex(t *testing.T, x *PageIndex[fuzzVal], shadow map[int64]*fuzzVal) {
	t.Helper()
	if x.Len() != len(shadow) {
		t.Fatalf("Len = %d, shadow has %d", x.Len(), len(shadow))
	}
	leaves := make(map[int64]bool)
	for k, v := range shadow {
		if got := x.Get(k); got != v {
			t.Fatalf("Get(%d) = %p, shadow %p", k, got, v)
		}
		leaves[k>>leafBits] = true
	}
	if len(x.dir) != len(leaves) {
		t.Fatalf("%d directory entries, shadow spans %d leaves", len(x.dir), len(leaves))
	}
}
