package cache

// ResultBuffers holds the slices a policy hands out through Result, reused
// across Access calls so the steady-state request path allocates nothing.
// Every policy embeds one and resets it at the top of Access (and of
// EvictIdle); the Result returned by those calls therefore aliases these
// buffers and is only valid until the policy's next call — the contract
// documented on Result.
//
// Eviction LPN batches are carved out of the single backing LPNs slice with
// full-slice expressions, so a batch keeps its contents even when later
// appends grow (and reallocate) the backing array.
type ResultBuffers struct {
	// Evictions backs Result.Evictions.
	Evictions []Eviction
	// LPNs backs the per-eviction LPN batches (and BPLRU's padding reads).
	LPNs []int64
	// Reads backs Result.ReadMisses.
	Reads []int64
	// Prefetches backs Result.Prefetches (NewReadAhead).
	Prefetches []int64
}

// Reset empties the buffers, keeping their storage.
func (b *ResultBuffers) Reset() {
	b.Evictions = b.Evictions[:0]
	b.LPNs = b.LPNs[:0]
	b.Reads = b.Reads[:0]
	b.Prefetches = b.Prefetches[:0]
}

// Mark returns the current LPN high-water mark; pass it to Carve after
// appending a batch.
func (b *ResultBuffers) Mark() int { return len(b.LPNs) }

// Carve returns the LPNs appended since mark as a capacity-clamped window:
// later appends to the backing buffer can never write into it.
func (b *ResultBuffers) Carve(mark int) []int64 {
	return b.LPNs[mark:len(b.LPNs):len(b.LPNs)]
}

// Finish copies the populated buffers into a Result. Empty buffers leave
// the Result's slices nil, matching the pre-buffer behavior.
func (b *ResultBuffers) Finish(res *Result) {
	if len(b.Evictions) > 0 {
		res.Evictions = b.Evictions
	}
	if len(b.Reads) > 0 {
		res.ReadMisses = b.Reads
	}
	if len(b.Prefetches) > 0 {
		res.Prefetches = b.Prefetches
	}
}
