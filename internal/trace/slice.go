package trace

// Utilities for cutting traces down: request-count prefixes and
// deterministic subsampling. Real traces are often week-long; these are
// the standard knives for carving evaluation sections out of them.

// Prefix returns the first n requests (or all of them if the trace is
// shorter). The returned trace shares no storage with the source.
func Prefix(t *Trace, n int) *Trace {
	if n > len(t.Requests) {
		n = len(t.Requests)
	}
	if n < 0 {
		n = 0
	}
	out := &Trace{Name: t.Name, Requests: make([]Request, n)}
	copy(out.Requests, t.Requests[:n])
	return out
}

// Sample keeps every k-th request (systematic sampling), preserving order
// and timestamps. k <= 1 returns a copy. Systematic sampling preserves
// arrival-rate shape better than random sampling and is deterministic.
//
// Caveat: any subsampling dilutes temporal locality — a page accessed
// twice may lose one of the two accesses — so hit ratios on a sampled
// trace underestimate the original's. Use Prefix when locality must be
// preserved.
func Sample(t *Trace, k int) *Trace {
	if k <= 1 {
		return Prefix(t, len(t.Requests))
	}
	out := &Trace{Name: t.Name}
	for i := 0; i < len(t.Requests); i += k {
		out.Requests = append(out.Requests, t.Requests[i])
	}
	return out
}
