package repro

// The GC-scheduling tail benchmark: the same bursty write-heavy replay
// against greedy foreground-only GC versus the preemptible scheduler
// collecting in the trace's idle windows. Replay is fully deterministic
// (simulated time end to end), so its P99/P99.9 response deltas are
// stable run to run. Run it with
// `go test -run '^$' -bench BenchmarkGCSchedTail -benchtime 3x .`.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/replay"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// BenchmarkGCSchedTail replays a bursty SRC1_2-shaped trace against a
// small, nearly-full device with destage back-pressure — the regime where
// foreground GC erases stall admissions and dominate the response tail.
// gc=greedy collects only when a plane runs out; gc=sched pre-collects in
// the arrival gaps (idle slices only, pacing off — paced copies in the
// host program path cost more here than the mandatory GC they avoid) so
// bursts land on planes already above the watermark.
func BenchmarkGCSchedTail(b *testing.B) {
	profile := workload.SRC12()
	profile.Burstiness = 10
	tr := workload.MustGenerate(profile, workload.Options{Scale: 0.05})
	modes := []struct {
		name   string
		budget int64
	}{
		{"gc=greedy", 0},
		{"gc=sched", 1_000_000_000}, // capped per-window at the actual gap
	}
	for _, mode := range modes {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := ssd.ScaledParams(64)
				p.Precondition = 0.98 // nearly full: every burst is GC pressure
				dev, err := ssd.New(p)
				if err != nil {
					b.Fatal(err)
				}
				if mode.budget > 0 {
					dev.EnableGCScheduler(ftl.GCSchedConfig{PaceSteps: -1})
				}
				m, err := replay.Run(tr, core.New(512), dev, replay.Options{
					IdleFlushNs:       2_000_000,
					BackPressureDepth: 4,
					GCBudgetNs:        mode.budget,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					if m.Device.GCRuns == 0 {
						b.Fatal("no GC pressure — the benchmark measures nothing")
					}
					b.ReportMetric(m.Response.Mean()/1e6, "mean-ms")
					b.ReportMetric(m.ResponseP99.Value()/1e6, "p99-ms")
					b.ReportMetric(m.ResponseP999.Value()/1e6, "p999-ms")
					// Total die-busy GC time: scheduled mode does MORE total
					// collection work (early victims carry more valid pages)
					// yet cuts the tail — the win is placement, not volume.
					b.ReportMetric(float64(m.Device.GCPauseNs)/1e6, "gc-pause-ms")
					if mode.budget > 0 && m.GCSched.JobsCompleted == 0 {
						b.Fatal("scheduled mode never completed a collection")
					}
				}
			}
		})
	}
}
