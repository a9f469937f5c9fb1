// Package obs is the run-scoped telemetry plane: live observability over
// the streaming simulation engine, layered on as sim.Observer
// implementations and ftl.Tap timing taps without touching the hot loop.
//
// The paper's evaluation is post-hoc — every number in internal/replay and
// internal/experiments summarizes a finished run. This package serves the
// complementary live view a production-scale engine needs: per-phase
// latency and size distributions (cache lookup, flash program/read/erase,
// GC pauses, eviction batches, destage drains), counters and gauges (hit
// ratio, occupancy, queue depth, fault injections, retired blocks,
// degraded-mode transitions), a Prometheus-text /metrics endpoint with
// /healthz and /debug/pprof, a periodic NDJSON progress line for headless
// runs, and one deterministic sampled request trace (TraceExport, in the
// Chrome trace-event format Perfetto loads) that records where each
// sampled request's time went and why the policy kept or evicted a block.
//
// Design rules, enforced by the alloc and passivity tests:
//
//   - Observation is passive. Attaching any instrument leaves replay
//     metrics bit-identical — instruments read events and device state,
//     never mutate them.
//   - The hot path stays allocation-free. Instruments are fixed-bucket
//     histograms (metrics.LogHist) and atomic counters; the unsampled
//     trace path costs one hash and a few branches, and the disabled
//     (nil) path one branch.
//   - Exposition is race-safe. The engine is single-threaded, but /metrics
//     is served concurrently; every instrument is atomic, so a scrape
//     mid-request reads a consistent-enough snapshot without locks.
//
// docs/OBSERVABILITY.md catalogs the instruments, the exposition formats
// and the trace-event schema.
package obs
