package flash

import "math"

// Wear summarizes the erase-cycle distribution across the array's blocks.
// The paper's introduction motivates DRAM write buffering with SSD
// endurance — high-density cells survive only a few hundred program/erase
// cycles (QLC ≈ 500) — so the simulator reports how evenly a policy's
// flush traffic wears the flash.
type Wear struct {
	// MinErase / MaxErase / MeanErase describe the per-block erase counts.
	MinErase, MaxErase int
	MeanErase          float64
	// StdDev is the standard deviation of per-block erase counts; dynamic
	// wear leveling keeps it low.
	StdDev float64
	// TotalErases is the sum over all blocks.
	TotalErases int64
}

// PreWear seeds every block's erase count as if the device had already
// lived through a long service life — the "aged device" scenario. Each
// block receives erases plus a deterministic per-block jitter draw in
// [0, jitter] (splitmix64 of seed and the block number, so two arrays
// pre-worn with equal arguments age identically). Page states are
// untouched: the array is still empty, only its wear history changes, so
// every invariant holds before and after. An FTL over the array indexes
// its free blocks by erase count, so age it through ftl.FTL.PreWear.
func (a *Array) PreWear(seed uint64, erases, jitter int) {
	if erases <= 0 && jitter <= 0 {
		return
	}
	if erases < 0 {
		erases = 0
	}
	for b := 0; b < a.p.Blocks(); b++ {
		e := erases
		if jitter > 0 {
			z := seed ^ (uint64(b)+1)*0x9e3779b97f4a7c15
			z += 0x9e3779b97f4a7c15
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			z ^= z >> 31
			e += int(z % uint64(jitter+1))
		}
		a.eraseCount[b] = int32(e)
	}
}

// WearStats computes the current erase-count distribution.
func (a *Array) WearStats() Wear {
	blocks := a.p.Blocks()
	w := Wear{MinErase: int(^uint(0) >> 1)}
	var sum, sumSq float64
	for b := 0; b < blocks; b++ {
		e := int(a.eraseCount[b])
		if e < w.MinErase {
			w.MinErase = e
		}
		if e > w.MaxErase {
			w.MaxErase = e
		}
		sum += float64(e)
		sumSq += float64(e) * float64(e)
		w.TotalErases += int64(e)
	}
	if blocks > 0 {
		w.MeanErase = sum / float64(blocks)
		variance := sumSq/float64(blocks) - w.MeanErase*w.MeanErase
		if variance > 0 {
			w.StdDev = math.Sqrt(variance)
		}
	}
	if w.MinErase == int(^uint(0)>>1) {
		w.MinErase = 0
	}
	return w
}
