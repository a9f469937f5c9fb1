package replay

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/workload"
)

// TestAllOptionsTogether exercises the full option surface in one run:
// warmup + closed loop + idle flushing + tenant attribution + page fates
// + occupancy series, on a mixed workload.
func TestAllOptionsTogether(t *testing.T) {
	ts0, hm1 := workload.TS0(), workload.HM1()
	tr, err := workload.Mix("combo", workload.Options{Scale: 0.01}, ts0, hm1)
	if err != nil {
		t.Fatal(err)
	}
	dev := testDevice(t)
	pol := core.New(1024)
	m, err := Run(tr, pol, dev, Options{
		TrackPageFates: true,
		SeriesInterval: 500,
		WarmupRequests: 100,
		IdleFlushNs:    2_000_000,
		QueueDepth:     16,
		TenantBoundaries: []int64{
			ts0.FootprintPages,
			ts0.FootprintPages + hm1.FootprintPages,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests != tr.Len() {
		t.Fatalf("processed %d of %d", m.Requests, tr.Len())
	}
	// Warmup excluded exactly 100 requests from the summaries.
	if m.Response.Count() != int64(tr.Len()-100) {
		t.Fatalf("response count %d, want %d", m.Response.Count(), tr.Len()-100)
	}
	if len(m.Tenants) != 2 {
		t.Fatal("tenants missing")
	}
	// Tenant responses also respect the warmup split.
	if m.Tenants[0].Response.Count()+m.Tenants[1].Response.Count() != int64(tr.Len()-100) {
		t.Fatal("tenant responses do not partition the measured window")
	}
	if m.ListSeries == nil || m.ListSeries["SRL"].Len() == 0 {
		t.Fatal("occupancy series missing")
	}
	if m.InsertBySize == nil || m.InsertBySize.Total() == 0 {
		t.Fatal("page fates missing")
	}
	if err := pol.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := dev.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOptionsValidate is the table over the option surface: every invalid
// configuration must be rejected up front with a specific error, and the
// boundary-legal ones must pass.
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name    string
		opts    Options
		wantErr string // substring; empty means valid
	}{
		{"zero-value", Options{}, ""},
		{"full-valid", Options{
			SmallThresholdPages: 8, SeriesInterval: 500, TrackPageFates: true,
			WarmupRequests: 100, IdleFlushNs: 1_000_000, GCBudgetNs: 30_000_000,
			QueueDepth: 16, TenantBoundaries: []int64{10, 20}, CrashAtRequest: 5,
			DestageNs: 1_000_000,
		}, ""},
		{"negative-threshold", Options{SmallThresholdPages: -1}, "SmallThresholdPages"},
		{"negative-series-interval", Options{SeriesInterval: -10}, "SeriesInterval"},
		{"negative-warmup", Options{WarmupRequests: -1}, "WarmupRequests"},
		{"negative-idle-flush", Options{IdleFlushNs: -1}, "IdleFlushNs"},
		{"negative-queue-depth", Options{QueueDepth: -2}, "QueueDepth"},
		{"negative-backpressure", Options{BackPressureDepth: -1}, "BackPressureDepth"},
		{"negative-crash-point", Options{CrashAtRequest: -1}, "CrashAtRequest"},
		{"negative-destage", Options{DestageNs: -1}, "DestageNs"},
		{"tenant-boundary-zero", Options{TenantBoundaries: []int64{0, 10}}, "tenant boundaries"},
		{"tenant-boundary-negative", Options{TenantBoundaries: []int64{-5, 10}}, "tenant boundaries"},
		{"tenant-boundary-not-increasing", Options{TenantBoundaries: []int64{10, 10}}, "tenant boundaries"},
		{"tenant-boundary-decreasing", Options{TenantBoundaries: []int64{20, 10}}, "tenant boundaries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestRunRejectsInvalidOptions checks the validation actually gates the
// replay entry points, not just the standalone method.
func TestRunRejectsInvalidOptions(t *testing.T) {
	dev := testDevice(t)
	if _, err := Run(microTrace(), cache.NewLRU(64), dev, Options{QueueDepth: -1}); err == nil {
		t.Fatal("Run accepted a negative queue depth")
	}
	if _, err := RunSource(microTrace().Source(), cache.NewLRU(64), dev, Options{SeriesInterval: -1}); err == nil {
		t.Fatal("RunSource accepted a negative series interval")
	}
	// Streaming + fates without an explicit threshold cannot work: the
	// auto-derivation needs the whole trace.
	if _, err := RunSource(microTrace().Source(), cache.NewLRU(64), dev, Options{TrackPageFates: true}); err == nil ||
		!strings.Contains(err.Error(), "SmallThresholdPages") {
		t.Fatalf("RunSource fates without threshold: err = %v", err)
	}
}
