package cache

// Leaf geometry of PageIndex: a key's low leafBits bits pick its slot, the
// rest pick its leaf.
const (
	leafBits  = 9
	leafSlots = 1 << leafBits
	leafMask  = leafSlots - 1
)

// pageLeaf is one allocated window of leafSlots consecutive keys. The slot
// array is its own 4 KiB allocation, so the header's count and pool link
// do not push it into a larger size class.
type pageLeaf[T any] struct {
	slots *[leafSlots]*T
	live  int          // non-nil slots
	next  *pageLeaf[T] // pool link while empty
}

// PageIndex maps non-negative int64 keys (LPNs, or block numbers) to
// values. It is the one page index every policy looks pages up in.
//
// It is a two-level radix: a directory map from key>>9 to a leaf of 512
// pointer slots, allocated on first use and returned to a pool when its
// last key is deleted, so a steady-state workload allocates nothing. A
// one-entry cache remembers the last leaf looked up (or that it was
// absent), so the consecutive pages of a request, and the pages of a block
// at eviction, index the slot array without hashing.
//
// Memory is 8 bytes per slot of every leaf ever allocated, plus a small
// header and directory entry per leaf. A leaf costs its 4 KiB however few
// of its keys are present, and pooled leaves are kept, so an index holds
// its peak of min(key space, 512 × keys held) slots for its whole life.
// Keys that share leaves (a request's pages, a block's pages) cost about
// one slot each; keys 512 or more apart cost a whole leaf each.
//
// The zero value is an empty index ready to use.
type PageIndex[T any] struct {
	dir map[int64]*pageLeaf[T]
	// lastID/last cache the most recent directory lookup; last is nil
	// when leaf lastID does not exist. The zero value caches "leaf 0 is
	// absent", which is true of an empty index.
	lastID int64
	last   *pageLeaf[T]
	pool   *pageLeaf[T]
	n      int
}

// leaf returns the leaf holding key's window, or nil, through the
// last-leaf cache.
func (x *PageIndex[T]) leaf(id int64) *pageLeaf[T] {
	if id != x.lastID {
		x.lastID, x.last = id, x.dir[id]
	}
	return x.last
}

// Len returns the number of keys present.
func (x *PageIndex[T]) Len() int { return x.n }

// Get returns the value stored under key, or nil.
func (x *PageIndex[T]) Get(key int64) *T {
	if l := x.leaf(key >> leafBits); l != nil {
		return l.slots[key&leafMask]
	}
	return nil
}

// Put stores a non-nil value under key, replacing any previous one.
func (x *PageIndex[T]) Put(key int64, v *T) {
	id := key >> leafBits
	l := x.leaf(id)
	if l == nil {
		if l = x.pool; l != nil {
			x.pool, l.next = l.next, nil
		} else {
			l = &pageLeaf[T]{slots: new([leafSlots]*T)}
		}
		if x.dir == nil {
			x.dir = make(map[int64]*pageLeaf[T])
		}
		x.dir[id] = l
		x.last = l
	}
	s := &l.slots[key&leafMask]
	if *s == nil {
		l.live++
		x.n++
	}
	*s = v
}

// Delete removes key, if present. A leaf whose last key goes returns to
// the pool.
func (x *PageIndex[T]) Delete(key int64) {
	id := key >> leafBits
	l := x.leaf(id)
	if l == nil || l.slots[key&leafMask] == nil {
		return
	}
	l.slots[key&leafMask] = nil
	x.n--
	if l.live--; l.live == 0 {
		delete(x.dir, id)
		x.last = nil
		l.next, x.pool = x.pool, l
	}
}

// Range calls fn for every key and value until fn returns false. The
// order is unspecified, so callers must not let a result depend on it.
func (x *PageIndex[T]) Range(fn func(key int64, v *T) bool) {
	for id, l := range x.dir {
		for i, v := range l.slots {
			if v != nil && !fn(id<<leafBits|int64(i), v) {
				return
			}
		}
	}
}
