package vindex

import (
	"math/bits"
	"math/rand"
	"testing"
)

// naiveModel is the obviously-correct reference: a flat slice scanned in
// full for the minimum (score, tie) on every pop. The heap must agree
// with it on every operation.
type naiveItem struct {
	key Key
	id  int
}

type naiveModel struct {
	items []naiveItem
}

func (m *naiveModel) push(score int64, tie uint64, id int) {
	m.items = append(m.items, naiveItem{key: Key{Score: score, Tie: tie}, id: id})
}

func (m *naiveModel) remove(id int) bool {
	for i, it := range m.items {
		if it.id == id {
			m.items = append(m.items[:i], m.items[i+1:]...)
			return true
		}
	}
	return false
}

func (m *naiveModel) popMin() (int, bool) {
	if len(m.items) == 0 {
		return 0, false
	}
	best := 0
	for i := 1; i < len(m.items); i++ {
		if m.items[i].key.less(m.items[best].key) {
			best = i
		}
	}
	id := m.items[best].id
	m.items = append(m.items[:best], m.items[best+1:]...)
	return id, true
}

func (m *naiveModel) peekMin() (int, bool) {
	if len(m.items) == 0 {
		return 0, false
	}
	best := 0
	for i := 1; i < len(m.items); i++ {
		if m.items[i].key.less(m.items[best].key) {
			best = i
		}
	}
	return m.items[best].id, true
}

// TestHeapDifferential drives the heap and the naive model in lockstep
// through a long randomized op sequence (push / invalidate / update /
// pop / peek / reset) and requires identical answers throughout.
func TestHeapDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h Heap[int]
		var m naiveModel
		handles := map[int]Handle[int]{} // id -> live handle
		nextID := 0
		var tieSeq uint64

		liveIDs := func() []int {
			ids := make([]int, 0, len(handles))
			for id := range handles {
				ids = append(ids, id)
			}
			return ids
		}

		for step := 0; step < 5000; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // push
				score := int64(rng.Intn(16)) // narrow range to force score ties
				tieSeq++
				id := nextID
				nextID++
				handles[id] = h.Push(score, tieSeq, id)
				m.push(score, tieSeq, id)
			case op < 6: // invalidate a random live entry
				ids := liveIDs()
				if len(ids) == 0 {
					continue
				}
				id := ids[rng.Intn(len(ids))]
				if !h.Invalidate(handles[id]) {
					t.Fatalf("seed %d step %d: Invalidate(%d) reported no-op on a live handle", seed, step, id)
				}
				delete(handles, id)
				m.remove(id)
			case op < 8: // update a random live entry to a new key
				ids := liveIDs()
				if len(ids) == 0 {
					continue
				}
				id := ids[rng.Intn(len(ids))]
				score := int64(rng.Intn(16))
				tieSeq++
				handles[id] = h.Update(handles[id], score, tieSeq, id)
				m.remove(id)
				m.push(score, tieSeq, id)
			case op < 9: // pop
				got, gotOK := h.PopMin()
				want, wantOK := m.popMin()
				if gotOK != wantOK || (gotOK && got != want) {
					t.Fatalf("seed %d step %d: PopMin = (%d,%v), naive = (%d,%v)", seed, step, got, gotOK, want, wantOK)
				}
				if gotOK {
					delete(handles, got)
				}
			default: // peek
				got, gotOK := h.PeekMin()
				want, wantOK := m.peekMin()
				if gotOK != wantOK || (gotOK && got != want) {
					t.Fatalf("seed %d step %d: PeekMin = (%d,%v), naive = (%d,%v)", seed, step, got, gotOK, want, wantOK)
				}
			}
			if h.Len() != len(m.items) || len(h.slots) != h.Len() {
				t.Fatalf("seed %d step %d: Len = %d (%d slots), naive = %d", seed, step, h.Len(), len(h.slots), len(m.items))
			}
			// Occasional full reset exercises pooled recycling of every
			// entry at once.
			if step%1024 == 1023 {
				h.Reset()
				m.items = m.items[:0]
				for id := range handles {
					delete(handles, id)
				}
			}
		}

		// Drain: remaining pops must come out in exact naive order.
		for {
			got, gotOK := h.PopMin()
			want, wantOK := m.popMin()
			if gotOK != wantOK || (gotOK && got != want) {
				t.Fatalf("seed %d drain: PopMin = (%d,%v), naive = (%d,%v)", seed, got, gotOK, want, wantOK)
			}
			if !gotOK {
				break
			}
		}
	}
}

// TestTieBreakInsertionOrder pins the ordering contract policies rely on:
// equal scores pop in ascending tie order, i.e. insertion order when the
// tie is a monotone sequence number.
func TestTieBreakInsertionOrder(t *testing.T) {
	var h Heap[string]
	h.Push(5, 1, "first")
	h.Push(5, 2, "second")
	h.Push(5, 3, "third")
	h.Push(4, 4, "smaller-later")

	want := []string{"smaller-later", "first", "second", "third"}
	for i, w := range want {
		got, ok := h.PopMin()
		if !ok || got != w {
			t.Fatalf("pop %d = (%q,%v), want %q", i, got, ok, w)
		}
	}
	if _, ok := h.PopMin(); ok {
		t.Fatalf("heap not empty after draining")
	}
}

// TestHandleGenerations pins the safety of retained handles: a handle
// whose entry has been invalidated, popped, or recycled into a new
// incarnation must be inert.
func TestHandleGenerations(t *testing.T) {
	var h Heap[int]

	// Zero handle: no-ops.
	var zero Handle[int]
	if zero.Valid() {
		t.Fatalf("zero handle reports Valid")
	}
	if h.Invalidate(zero) {
		t.Fatalf("Invalidate(zero) reported work done")
	}

	// Invalidate makes the handle stale; double-invalidate is a no-op.
	hd := h.Push(1, 1, 10)
	if !hd.Valid() {
		t.Fatalf("fresh handle not valid")
	}
	if !h.Invalidate(hd) {
		t.Fatalf("first Invalidate failed")
	}
	if hd.Valid() {
		t.Fatalf("handle still valid after Invalidate")
	}
	if h.Invalidate(hd) {
		t.Fatalf("second Invalidate reported work done")
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d after invalidating the only entry", h.Len())
	}

	// A handle into a popped-and-recycled entry must not affect the new
	// incarnation occupying the same pooled slot.
	hd = h.Push(1, 2, 20)
	if v, ok := h.PopMin(); !ok || v != 20 {
		t.Fatalf("PopMin = (%d,%v), want (20,true)", v, ok)
	}
	hd2 := h.Push(2, 3, 30) // reuses the pooled entry
	if hd.Valid() {
		t.Fatalf("stale handle valid after its entry was recycled")
	}
	if h.Invalidate(hd) {
		t.Fatalf("stale handle invalidated the recycled entry")
	}
	if v, ok := h.PopMin(); !ok || v != 30 {
		t.Fatalf("new incarnation lost: PopMin = (%d,%v), want (30,true)", v, ok)
	}
	_ = hd2
}

// TestHeapHoldsOnlyLiveEntriesAndPopsInLogTime pins the indexed heap's
// bounds: after any mix of Push, Update, Invalidate and PopMin the slot
// array holds exactly Len entries (nothing stale lingers), and each
// PopMin costs at most 1 + floor(log2 Len) — one for the pop plus one per
// level the replacement root sinks.
func TestHeapHoldsOnlyLiveEntriesAndPopsInLogTime(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h Heap[int]
		var handles []Handle[int] // live handles; value i is at pos[i]
		pos := map[int]int{}
		drop := func(v int) {
			i, last := pos[v], len(handles)-1
			delete(pos, v)
			if i < last {
				handles[i] = handles[last]
				pos[handles[i].e.val] = i
			}
			handles = handles[:last]
		}
		var tieSeq uint64
		for step := 0; step < 200000; step++ {
			// Grow toward ~16Ki entries early, then churn around it.
			op := rng.Intn(10)
			if step < 50000 && op >= 6 {
				op = 0
			}
			switch {
			case op < 4 || len(handles) == 0:
				tieSeq++
				pos[int(tieSeq)] = len(handles)
				handles = append(handles, h.Push(int64(rng.Intn(1024)), tieSeq, int(tieSeq)))
			case op < 6:
				i := rng.Intn(len(handles))
				tieSeq++
				delete(pos, handles[i].e.val)
				pos[int(tieSeq)] = i
				handles[i] = h.Update(handles[i], int64(rng.Intn(1024)), tieSeq, int(tieSeq))
			case op < 8:
				i := rng.Intn(len(handles))
				hd := handles[i]
				drop(hd.e.val)
				if !h.Invalidate(hd) {
					t.Fatalf("seed %d step %d: Invalidate on a live handle did nothing", seed, step)
				}
			default:
				n := h.Len()
				before := h.Cost()
				v, ok := h.PopMin()
				if !ok {
					t.Fatalf("seed %d step %d: PopMin on %d entries failed", seed, step, n)
				}
				floorLog2 := bits.Len(uint(n)) - 1
				if cost := h.Cost() - before; cost > int64(1+floorLog2) {
					t.Fatalf("seed %d step %d: PopMin over %d entries cost %d, bound %d", seed, step, n, cost, 1+floorLog2)
				}
				drop(v)
			}
			if len(h.slots) != h.Len() || h.Len() != len(handles) {
				t.Fatalf("seed %d step %d: %d slots, Len %d, %d live handles", seed, step, len(h.slots), h.Len(), len(handles))
			}
		}
	}
}

// TestCostMonotone checks the scan-cost counter only moves forward and
// charges work at pop time.
func TestCostMonotone(t *testing.T) {
	var h Heap[int]
	for i := 0; i < 256; i++ {
		h.Push(int64(256-i), uint64(i+1), i)
	}
	before := h.Cost()
	for i := 0; i < 256; i++ {
		if _, ok := h.PopMin(); !ok {
			t.Fatalf("premature empty at pop %d", i)
		}
		after := h.Cost()
		if after <= before {
			t.Fatalf("cost did not advance on pop %d: %d -> %d", i, before, after)
		}
		before = after
	}
}

func TestBestSelectors(t *testing.T) {
	cases := []struct {
		scores []int64
		want   int
	}{
		{nil, -1},
		{[]int64{}, -1},
		{[]int64{7}, 0},
		{[]int64{3, 1, 2}, 1},
		{[]int64{5, 5, 5}, 0},    // first wins ties
		{[]int64{9, 2, 2, 8}, 1}, // first of the tied pair
		{[]int64{-4, -4, -9}, 2},
	}
	for _, c := range cases {
		if got := Best(c.scores); got != c.want {
			t.Errorf("Best(%v) = %d, want %d", c.scores, got, c.want)
		}
	}
	fcases := []struct {
		scores []float64
		want   int
	}{
		{nil, -1},
		{[]float64{2.5}, 0},
		{[]float64{1.5, 1.5, 0.5}, 2},
		{[]float64{3.25, 3.25}, 0}, // first wins ties
	}
	for _, c := range fcases {
		if got := BestF(c.scores); got != c.want {
			t.Errorf("BestF(%v) = %d, want %d", c.scores, got, c.want)
		}
	}
}
