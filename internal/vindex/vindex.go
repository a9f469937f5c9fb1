// Package vindex is the shared indexed victim-selection core: an indexed
// min-heap with generation-stamped, pooled entries, plus tiny
// fixed-candidate selectors for policies whose victim sets are small
// device constants.
//
// Every cache policy in this repository ultimately answers the same
// question at eviction time — "which resident item scores worst right
// now?" — but at GB-scale capacities the linear scans the paper's 16/64 MB
// evaluation could afford (FAB's full-group walk, PUD-LRU's PUD sweep, a
// naive min-frequency scan) turn O(n) per eviction. Heap indexes the
// policy-supplied score so victim selection is O(log n):
//
//   - Push inserts an entry under a (score, tie) key and returns a Handle.
//   - Every entry knows its slot in the heap array, so Update re-keys an
//     entry in place and sifts it up or down, and Invalidate removes it
//     in place. Both cost O(log n).
//   - The heap therefore holds exactly its live entries: PopMin and
//     PeekMin never meet a stale one, and the slot array is as long as
//     Len.
//
// Ordering is ascending (score, tie). Policies encode "largest wins" by
// negating the score and encode their documented tie-break contract
// (insertion order, bucket-entry order, recency rank) in the tie field —
// the heap itself is deterministic: equal (score, tie) pairs never occur
// in practice because ties carry a unique monotone sequence number.
//
// Entries are pooled per heap and recycled on pop, invalidation and
// reset, so a warm heap allocates nothing in steady state (enforced by
// the package's AllocsPerRun test). Generations make retained Handles
// harmless: Update and recycling bump an entry's generation, so an older
// Handle no longer matches it. Invalidate on such a Handle is a no-op,
// and Update on it pushes a fresh entry.
package vindex

// Key is the heap ordering: ascending Score, ties broken by ascending
// Tie. Policies map their victim rule onto it (e.g. FAB: Score = -group
// size, Tie = group creation sequence, so the fullest, oldest group pops
// first).
type Key struct {
	Score int64
	Tie   uint64
}

// less is the tournament comparison.
func (k Key) less(o Key) bool {
	if k.Score != o.Score {
		return k.Score < o.Score
	}
	return k.Tie < o.Tie
}

// entry is one heap element; slot is its index in Heap.slots while it is
// in the heap.
type entry[V any] struct {
	key  Key
	val  V
	gen  uint64 // bumped on Update and recycle; Handles pin a generation
	slot int
	next *entry[V] // pool link
}

// Handle names one live heap entry under one key. The zero Handle is
// valid and refers to nothing: Invalidate on it is a no-op and Update on
// it pushes a fresh entry (so a policy's "no entry yet" state needs no
// special casing).
type Handle[V any] struct {
	e   *entry[V]
	gen uint64
}

// Valid reports whether the handle still names a live entry.
func (h Handle[V]) Valid() bool { return h.e != nil && h.e.gen == h.gen }

// Heap is the indexed min-heap. The zero value is an empty heap ready to
// use. Heap is not safe for concurrent use; every policy owns its own.
type Heap[V any] struct {
	slots []*entry[V]
	free  *entry[V]
	cost  int64
}

// Len returns the number of entries.
func (h *Heap[V]) Len() int { return len(h.slots) }

// Cost returns the cumulative victim-selection work counter: one unit per
// pop or peek, plus one per level an entry is sifted down. Policies
// difference it around an eviction to report per-eviction scan cost.
func (h *Heap[V]) Cost() int64 { return h.cost }

// Push inserts val under (score, tie) and returns its Handle.
func (h *Heap[V]) Push(score int64, tie uint64, val V) Handle[V] {
	e := h.free
	if e != nil {
		h.free = e.next
		e.next = nil
	} else {
		e = &entry[V]{}
	}
	e.key = Key{Score: score, Tie: tie}
	e.val = val
	h.slots = append(h.slots, e)
	h.siftUp(len(h.slots) - 1)
	return Handle[V]{e: e, gen: e.gen}
}

// Invalidate removes the handle's entry; it reports whether a live entry
// was actually removed. Stale or zero handles are no-ops.
func (h *Heap[V]) Invalidate(hd Handle[V]) bool {
	if !hd.Valid() {
		return false
	}
	h.removeAt(hd.e.slot)
	h.recycle(hd.e)
	return true
}

// Update re-keys the handle's entry in place and returns its new Handle;
// the old one goes stale. A stale or zero handle pushes a fresh entry.
func (h *Heap[V]) Update(hd Handle[V], score int64, tie uint64, val V) Handle[V] {
	if !hd.Valid() {
		return h.Push(score, tie, val)
	}
	e := hd.e
	e.key = Key{Score: score, Tie: tie}
	e.val = val
	e.gen++
	h.fix(e.slot)
	return Handle[V]{e: e, gen: e.gen}
}

// PopMin removes and returns the minimum. ok is false when the heap is
// empty.
func (h *Heap[V]) PopMin() (val V, ok bool) {
	if len(h.slots) == 0 {
		return val, false
	}
	h.cost++
	root := h.slots[0]
	val = root.val
	h.removeAt(0)
	h.recycle(root)
	return val, true
}

// PeekMin returns the minimum without removing it. ok is false when the
// heap is empty.
func (h *Heap[V]) PeekMin() (val V, ok bool) {
	if len(h.slots) == 0 {
		return val, false
	}
	h.cost++
	return h.slots[0].val, true
}

// Reset empties the heap, recycling every entry into the pool. Handles
// into the heap become stale.
func (h *Heap[V]) Reset() {
	for i, e := range h.slots {
		h.recycle(e)
		h.slots[i] = nil
	}
	h.slots = h.slots[:0]
}

// recycle returns an entry to the pool, bumping its generation so any
// retained Handle can never match the next incarnation.
func (h *Heap[V]) recycle(e *entry[V]) {
	e.gen++
	var zero V
	e.val = zero
	e.next = h.free
	h.free = e
}

// removeAt detaches slot i: the last entry takes its place and is sifted
// to where it belongs.
func (h *Heap[V]) removeAt(i int) {
	last := len(h.slots) - 1
	e := h.slots[last]
	h.slots[last] = nil
	h.slots = h.slots[:last]
	if i < last {
		h.slots[i] = e
		e.slot = i
		h.fix(i)
	}
}

// fix restores the heap property around slot i after its key changed.
func (h *Heap[V]) fix(i int) {
	if i > 0 && h.slots[i].key.less(h.slots[(i-1)/2].key) {
		h.siftUp(i)
	} else {
		h.siftDown(i)
	}
}

func (h *Heap[V]) siftUp(i int) {
	e := h.slots[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := h.slots[parent]
		if !e.key.less(p.key) {
			break
		}
		h.slots[i] = p
		p.slot = i
		i = parent
	}
	h.slots[i] = e
	e.slot = i
}

func (h *Heap[V]) siftDown(i int) {
	e := h.slots[i]
	n := len(h.slots)
	for {
		// Tournament step: the smaller child advances.
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h.slots[r].key.less(h.slots[child].key) {
			child = r
		}
		c := h.slots[child]
		if !c.key.less(e.key) {
			break
		}
		h.slots[i] = c
		c.slot = i
		h.cost++
		i = child
	}
	h.slots[i] = e
	e.slot = i
}

// Best returns the index of the smallest score, the first index winning
// ties (matching the "scan in candidate order, replace on strictly
// smaller" contract of the linear scans it replaces). It returns -1 for
// an empty slice. Policies whose candidate sets are small fixed
// populations — ECR's per-channel queues, Req-block's three list tails —
// select through Best so the tie-break contract lives in one place.
func Best(scores []int64) int {
	best := -1
	for i, s := range scores {
		if best < 0 || s < scores[best] {
			best = i
		}
	}
	return best
}

// BestF is Best for float64 scores (Req-block's Eq. 1 frequency).
func BestF(scores []float64) int {
	best := -1
	for i, s := range scores {
		if best < 0 || s < scores[best] {
			best = i
		}
	}
	return best
}
