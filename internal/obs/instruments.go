package obs

import (
	"math"
	"sync/atomic"
)

// The instruments below, and the histogram the catalog registers
// (metrics.LogHist), share three properties the rest of the package
// depends on:
//
//   - Nil-safe: every method on a nil receiver is a no-op (reads return
//     zero), so call sites never guard "is telemetry enabled".
//   - Atomic: the engine goroutine writes while HTTP scrape goroutines
//     read; neither side takes a lock.
//   - Allocation-free: updates touch only pre-sized fixed storage.

// Counter is a monotonically increasing accumulator.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Set jumps the counter to an absolute cumulative value. It exists for
// mirroring counters the device already accumulates (ssd.Counters
// snapshots); treat such instruments as externally owned and never mix
// Set with Add.
func (c *Counter) Set(n int64) {
	if c != nil {
		c.v.Store(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous integer value.
type Gauge struct{ v atomic.Int64 }

// Set stores the current value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FGauge is an instantaneous float64 value (hit ratios, fractions).
type FGauge struct{ v atomic.Uint64 }

// Set stores the current value.
func (g *FGauge) Set(f float64) {
	if g != nil {
		g.v.Store(math.Float64bits(f))
	}
}

// Value returns the current value.
func (g *FGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.v.Load())
}
