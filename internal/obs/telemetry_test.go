package obs

import (
	"io"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testDevice builds the small geometry the replay tests use: enough
// logical space for the workload footprints, tiny blocks so GC is cheap.
func testDevice(t *testing.T) *ssd.Device {
	t.Helper()
	p := ssd.DefaultParams()
	p.Flash.BlocksPerPlane = 512
	p.Flash.PagesPerBlock = 16
	p.Precondition = 0
	d, err := ssd.New(p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// testTrace generates a small deterministic workload with enough writes
// to force evictions through a 1024-page cache.
func testTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := workload.Generate(workload.TS0(), workload.Options{Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// degradingDevice builds the tiny fault-prone geometry the replay fault
// tests use: two reserve blocks' worth of headroom so erase failures
// exhaust the device within a few hundred requests.
func degradingDevice(t *testing.T, cfg fault.Config) *ssd.Device {
	t.Helper()
	p := ssd.DefaultParams()
	p.Flash.Channels = 2
	p.Flash.ChipsPerChannel = 2
	p.Flash.BlocksPerPlane = 16
	p.Flash.PagesPerBlock = 8
	p.Flash.OverProvision = 0.25
	p.Flash.GCThreshold = 0.25
	p.Precondition = 0
	p.Faults = cfg
	d, err := ssd.New(p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// churnTrace writes the same 256 pages over and over, forcing GC.
func churnTrace(n int) *trace.Trace {
	reqs := make([]trace.Request, n)
	for i := range reqs {
		page := int64(i*8) % 256
		reqs[i] = trace.Request{Time: int64(i) * 1_000_000, Write: true, Offset: page * 4096, Size: 8 * 4096}
	}
	return &trace.Trace{Name: "churn", Requests: reqs}
}

// fullStack returns a Telemetry plus every optional consumer wired up,
// ready to attach to one replay.
func fullStack(w io.Writer) (*Telemetry, *TraceExport, *Progress) {
	tel := New()
	exp := NewTraceExport(w, 64, 1)
	progress := NewProgress(io.Discard, 5000)
	return tel, exp, progress
}

// Attaching the whole telemetry plane — observer, flash tap, trace export
// (also the policy's list-transition sink), progress reporter — must leave
// replay metrics bit-identical to a bare run: observation is passive.
func TestTelemetryIsPassive(t *testing.T) {
	tr := testTrace(t)
	opts := replay.Options{
		TrackPageFates:      true,
		SmallThresholdPages: 4,
		SeriesInterval:      500,
		WarmupRequests:      100,
		IdleFlushNs:         2_000_000,
		DestageNs:           50_000_000,
	}

	plain, err := replay.Run(tr, core.New(1024), testDevice(t), opts)
	if err != nil {
		t.Fatal(err)
	}

	tel, exp, progress := fullStack(io.Discard)
	dev := testDevice(t)
	dev.SetTap(tel)
	pol := core.New(1024)
	pol.SetTransitionSink(exp)
	instrumented := opts
	instrumented.Observers = []sim.Observer{tel.Observer(), exp, progress}
	got, err := replay.Run(tr, pol, dev, instrumented)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain, got) {
		t.Fatal("telemetry perturbed replay metrics; observation must be passive")
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	if exp.SampledCount() == 0 {
		t.Fatal("trace export sampled nothing at rate 64")
	}
}

// One instrumented replay must populate every plane of the catalog
// consistently with the replay's own metrics.
func TestTelemetryCatalogAgreesWithMetrics(t *testing.T) {
	tr := testTrace(t)
	tel := New()
	dev := testDevice(t)
	dev.SetTap(tel)
	m, err := replay.Run(tr, cache.NewLRU(1024), dev, replay.Options{
		WarmupRequests: 100,
		Observers:      []sim.Observer{tel.Observer()},
	})
	if err != nil {
		t.Fatal(err)
	}

	if got := tel.Requests.Value(); got != int64(m.Requests) {
		t.Fatalf("Requests = %d, metrics say %d", got, m.Requests)
	}
	if got := tel.PageHits.Value(); got != m.PageHits {
		t.Fatalf("PageHits = %d, metrics say %d", got, m.PageHits)
	}
	if got := tel.PageMisses.Value(); got != m.PageMisses {
		t.Fatalf("PageMisses = %d, metrics say %d", got, m.PageMisses)
	}
	if got, want := tel.HitRatio.Value(), m.HitRatio(); got != want {
		t.Fatalf("HitRatio = %v, metrics say %v", got, want)
	}
	if got := tel.FlashWrites.Value(); got != m.Device.FlashWrites {
		t.Fatalf("FlashWrites = %d, metrics say %d", got, m.Device.FlashWrites)
	}
	if tel.ReqLatency.Count() != int64(m.Requests) {
		t.Fatalf("ReqLatency count = %d, want %d", tel.ReqLatency.Count(), m.Requests)
	}
	if tel.ProgramNs.Count() == 0 {
		t.Fatal("flash tap saw no programs despite flash writes")
	}
	if tel.EvictionBatch.Count() == 0 || tel.FlushedPages.Value() == 0 {
		t.Fatal("eviction plane never populated")
	}
	if tel.Occupancy.Value() == 0 || tel.Capacity.Value() != 1024 {
		t.Fatalf("occupancy plane wrong: occ=%d cap=%d", tel.Occupancy.Value(), tel.Capacity.Value())
	}
	if tel.RunsDone.Value() != 1 {
		t.Fatalf("RunsDone = %d", tel.RunsDone.Value())
	}
	if !tel.Healthy() {
		t.Fatal("healthy run reported degraded")
	}
}

// A run that drives the device into read-only mode must flip the health
// plane: Degraded gauge, transition counter, Healthy().
func TestTelemetryDegradedHealth(t *testing.T) {
	cfg := fault.Config{EraseFailProb: 1, ReserveBlocks: 1, CheckInvariants: true}
	dev := degradingDevice(t, cfg)
	tel := New()
	dev.SetTap(tel)
	var opts replay.Options
	opts.ApplyFaults(cfg)
	opts.Observers = []sim.Observer{tel.Observer()}
	m, err := replay.Run(churnTrace(400), cache.NewLRU(64), dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Degraded {
		t.Fatal("device never degraded with efail=1")
	}
	if tel.Healthy() {
		t.Fatal("degraded device still reports healthy")
	}
	if tel.Degraded.Value() != 1 {
		t.Fatal("Degraded gauge not set")
	}
	if tel.DegradedTrans.Value() == 0 {
		t.Fatal("degraded transition counter never mirrored")
	}
}
