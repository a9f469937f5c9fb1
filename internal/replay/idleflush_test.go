package replay

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestIdleFlushDrainsDuringGaps(t *testing.T) {
	dev := testDevice(t)
	pol := cache.NewLRU(8)
	// Fill the buffer, then a long idle gap, then one more write.
	tr := &trace.Trace{Name: "idle", Requests: []trace.Request{
		{Time: 0, Write: true, Offset: 0, Size: 8 * 4096},
		{Time: 1_000_000_000, Write: true, Offset: 100 * 4096, Size: 4096},
	}}
	m, err := Run(tr, pol, dev, Options{IdleFlushNs: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	// The idle period drains down to half capacity (LRU's EvictIdle
	// stopping rule): 8 → 4 pages, i.e. 4 idle-flushed pages.
	if m.IdleFlushedPages != 4 {
		t.Fatalf("IdleFlushedPages = %d, want 4", m.IdleFlushedPages)
	}
	// The final write then inserts without evicting anything.
	if m.FlushedPages != 4 {
		t.Fatalf("FlushedPages = %d, want 4 (no request-path evictions)", m.FlushedPages)
	}
	if pol.Len() != 5 {
		t.Fatalf("cache pages = %d, want 5 (4 survivors + 1 new)", pol.Len())
	}
}

func TestIdleFlushDisabledByDefault(t *testing.T) {
	dev := testDevice(t)
	pol := cache.NewLRU(8)
	tr := &trace.Trace{Name: "noidle", Requests: []trace.Request{
		{Time: 0, Write: true, Offset: 0, Size: 8 * 4096},
		{Time: 1_000_000_000, Write: true, Offset: 100 * 4096, Size: 4096},
	}}
	m, err := Run(tr, pol, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.IdleFlushedPages != 0 {
		t.Fatal("idle flush ran without being enabled")
	}
}

func TestIdleFlushRespectsShortGaps(t *testing.T) {
	dev := testDevice(t)
	pol := cache.NewLRU(8)
	tr := &trace.Trace{Name: "shortgaps", Requests: []trace.Request{
		{Time: 0, Write: true, Offset: 0, Size: 8 * 4096},
		{Time: 1000, Write: true, Offset: 100 * 4096, Size: 4096}, // 1 µs gap
	}}
	m, err := Run(tr, pol, dev, Options{IdleFlushNs: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if m.IdleFlushedPages != 0 {
		t.Fatalf("idle flush fired on a %dns gap", 1000)
	}
}

func TestIdleFlushSkipsNonEvictorPolicies(t *testing.T) {
	dev := testDevice(t)
	pol := cache.NewLFU(8) // LFU does not implement IdleEvictor
	tr := &trace.Trace{Name: "lfu", Requests: []trace.Request{
		{Time: 0, Write: true, Offset: 0, Size: 8 * 4096},
		{Time: 1_000_000_000, Write: true, Offset: 100 * 4096, Size: 4096},
	}}
	m, err := Run(tr, pol, dev, Options{IdleFlushNs: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if m.IdleFlushedPages != 0 {
		t.Fatal("idle flush ran on a policy without EvictIdle")
	}
}

func TestIdleFlushReqBlockKeepsHotBlocks(t *testing.T) {
	dev := testDevice(t)
	pol := core.New(16)
	tr := &trace.Trace{Name: "rb-idle", Requests: []trace.Request{
		{Time: 0, Write: true, Offset: 0, Size: 2 * 4096},           // small block
		{Time: 1, Write: true, Offset: 0, Size: 2 * 4096},           // hit → SRL
		{Time: 2, Write: true, Offset: 100 * 4096, Size: 12 * 4096}, // cold large
		{Time: 2_000_000_000, Write: true, Offset: 200 * 4096, Size: 4096},
	}}
	m, err := Run(tr, pol, dev, Options{IdleFlushNs: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if m.IdleFlushedPages == 0 {
		t.Fatal("idle flush never ran")
	}
	// The hot small block must survive; the cold large block is what
	// drained.
	if !pol.Contains(0) || !pol.Contains(1) {
		t.Fatal("idle flush evicted the hot SRL block")
	}
	if pol.Contains(100) {
		t.Fatal("cold large block survived idle flushing")
	}
}

// TestIdleFlushImprovesResponse is the extension's point: with idle
// draining, bursts after idle gaps find buffer space and skip the
// request-path eviction stall.
func TestIdleFlushImprovesResponse(t *testing.T) {
	run := func(idle int64) float64 {
		dev := testDevice(t)
		pol := core.New(1024)
		tr := workload.MustGenerate(workload.SRC12(), workload.Options{Scale: 0.01})
		m, err := Run(tr, pol, dev, Options{IdleFlushNs: idle})
		if err != nil {
			t.Fatal(err)
		}
		return m.WriteResponse.Mean()
	}
	withIdle := run(500_000) // flush during gaps > 0.5 ms
	without := run(0)
	if withIdle > without*1.05 {
		t.Fatalf("idle flushing worsened write response: %.0f vs %.0f ns", withIdle, without)
	}
}

// TestIdleFlushShinesOnBurstyArrivals: ON/OFF arrivals create exactly the
// idle windows Co-Active exploits; draining during OFF periods removes
// eviction stalls from the next burst.
func TestIdleFlushShinesOnBurstyArrivals(t *testing.T) {
	profile := workload.SRC12()
	profile.Burstiness = 10
	tr := workload.MustGenerate(profile, workload.Options{Scale: 0.02})
	run := func(idleNs int64) (mean float64, idlePages int64) {
		dev := testDevice(t)
		pol := core.New(1024)
		m, err := Run(tr, pol, dev, Options{IdleFlushNs: idleNs})
		if err != nil {
			t.Fatal(err)
		}
		return m.WriteResponse.Mean(), m.IdleFlushedPages
	}
	withIdle, pages := run(2_000_000)
	without, _ := run(0)
	if pages == 0 {
		t.Fatal("bursty trace produced no idle windows")
	}
	if withIdle >= without {
		t.Fatalf("idle flushing did not help on bursty arrivals: %.0f vs %.0f ns",
			withIdle, without)
	}
}
