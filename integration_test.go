package repro

// Cross-package integration tests: end-to-end consistency checks that no
// single package can perform alone.

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mrc"
	"repro/internal/replay"
	"repro/internal/ssd"
	"repro/internal/trace"
	"repro/internal/workload"
)

func integrationDevice(t *testing.T) *ssd.Device {
	t.Helper()
	p := ssd.ScaledParams(16)
	d, err := ssd.New(p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFigure8RatioPinned pins the paper's headline number on the grid
// BenchmarkFigure8ResponseTime runs: Req-block's mean response time
// normalized to LRU. Simulated time is deterministic, so the ratio must
// match to the last bit; a change that moves it changes the reproduced
// result.
func TestFigure8RatioPinned(t *testing.T) {
	g, err := experiments.NewRunner(fig8GridConfig()).RunGrid()
	if err != nil {
		t.Fatal(err)
	}
	const want = 0.9596779647745152 // prints as 0.9597
	if got := reqBlockRespVsLRU(g); got != want {
		t.Fatalf("reqblock-resp-vs-LRU = %v, want %v", got, want)
	}
}

// TestHitRatioConservation: for any policy, page accesses partition into
// hits and misses, write misses partition into still-resident and flushed
// (plus clean drops), and the device write counter equals the flushed
// dirty pages. One equation across cache, replay and device.
func TestHitRatioConservation(t *testing.T) {
	tr := workload.MustGenerate(workload.TS0(), workload.Options{Scale: 0.02})
	policies := []cache.Policy{
		cache.NewLRU(1024), cache.NewVBBMS(1024),
		cache.NewBPLRU(1024, 64), core.New(1024),
	}
	for _, pol := range policies {
		dev := integrationDevice(t)
		m, err := replay.Run(tr, pol, dev, replay.Options{})
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if m.PageHits+m.PageMisses == 0 {
			t.Fatalf("%s: nothing accessed", pol.Name())
		}
		// Dirty pages flushed + still resident = pages ever inserted.
		// (No padding policies here, so flushes ⊆ inserted pages.)
		if m.FlushedPages+int64(pol.Len())+m.CleanDrops < 1 {
			t.Fatalf("%s: no buffered data at all", pol.Name())
		}
		if m.Device.FlashWrites != m.FlushedPages {
			t.Fatalf("%s: device wrote %d pages but replay flushed %d",
				pol.Name(), m.Device.FlashWrites, m.FlushedPages)
		}
		if err := dev.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
	}
}

// TestMRCBoundsAllPolicies: no write-buffer policy in this repository
// inserts read-miss data, so the general-cache LRU curve at the same
// capacity upper-bounds none of them a priori — but the *write-buffer*
// curve must match simulated LRU closely, and every policy's hit ratio
// must stay within [0, curve at infinite capacity].
func TestMRCBoundsAllPolicies(t *testing.T) {
	tr := workload.MustGenerate(workload.USR0(), workload.Options{Scale: 0.02})
	curve, err := mrc.Compute(tr, mrc.Options{WriteBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	maxHit := curve.HitRatio(1 << 30) // infinite capacity
	for _, mk := range []func() cache.Policy{
		func() cache.Policy { return cache.NewLRU(2048) },
		func() cache.Policy { return cache.NewVBBMS(2048) },
		func() cache.Policy { return core.New(2048) },
	} {
		pol := mk()
		dev := integrationDevice(t)
		m, err := replay.Run(tr, pol, dev, replay.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if hr := m.HitRatio(); hr > maxHit+0.01 {
			t.Fatalf("%s: hit ratio %.4f exceeds the compulsory-miss bound %.4f",
				pol.Name(), hr, maxHit)
		}
	}
	// And the LRU point must track the curve.
	dev := integrationDevice(t)
	m, err := replay.Run(tr, cache.NewLRU(2048), dev, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(m.HitRatio() - curve.HitRatio(2048)); d > 0.05 {
		t.Fatalf("simulated LRU %.4f vs curve %.4f", m.HitRatio(), curve.HitRatio(2048))
	}
}

// TestTraceFormatsAgree: the same synthetic workload exported as MSR CSV
// and replayed must produce identical results to replaying it directly.
func TestTraceFormatsAgree(t *testing.T) {
	orig := workload.MustGenerate(workload.SRC12(), workload.Options{Scale: 0.005})
	var buf bytes.Buffer
	if err := trace.WriteMSR(&buf, orig); err != nil {
		t.Fatal(err)
	}
	parsed, err := trace.ReadMSR(&buf, orig.Name)
	if err != nil {
		t.Fatal(err)
	}
	run := func(tr *trace.Trace) *replay.Metrics {
		dev := integrationDevice(t)
		m, err := replay.Run(tr, core.New(512), dev, replay.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(orig), run(parsed)
	if a.PageHits != b.PageHits || a.FlushedPages != b.FlushedPages {
		t.Fatalf("MSR round trip changed behavior: hits %d vs %d, flushed %d vs %d",
			a.PageHits, b.PageHits, a.FlushedPages, b.FlushedPages)
	}
	// Times quantize to 100 ns in the MSR format; response sums may
	// differ by at most that per request.
	if d := math.Abs(a.Response.Mean() - b.Response.Mean()); d > 200 {
		t.Fatalf("response means diverged: %v vs %v", a.Response.Mean(), b.Response.Mean())
	}
}
