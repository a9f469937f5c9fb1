package replay

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ssd"
	"repro/internal/trace"
	"repro/internal/workload"
)

// msrText serializes a trace to MSR CSV once, so the materialized and the
// streaming replay both parse the exact same bytes (WriteMSR truncates
// times to 100 ns filetime ticks — deriving one side from the in-memory
// trace instead would compare different request sequences).
func msrText(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteMSR(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamingReplayMatchesMaterialized is the tentpole equivalence
// golden: for every policy family, replaying an MSR stream through
// RunSource (constant memory, trace.Scanner) must produce metrics
// bit-identical to materializing the same bytes and running the classic
// path — the full Metrics struct, histograms (the response histogram
// behind the percentiles too) and occupancy series included.
func TestStreamingReplayMatchesMaterialized(t *testing.T) {
	ts0, hm1 := workload.TS0(), workload.HM1()
	mix, err := workload.Mix("eq", workload.Options{Scale: 0.01}, ts0, hm1)
	if err != nil {
		t.Fatal(err)
	}
	text := msrText(t, mix)
	channels := ssd.DefaultParams().Flash.Channels
	policies := []struct {
		name string
		mk   func() cache.Policy
	}{
		{"LRU", func() cache.Policy { return cache.NewLRU(1024) }},
		{"CFLRU", func() cache.Policy { return cache.NewCFLRU(1024) }},
		{"FAB", func() cache.Policy { return cache.NewFAB(1024, 16) }},
		{"BPLRU", func() cache.Policy { return cache.NewBPLRU(1024, 16) }},
		{"VBBMS", func() cache.Policy { return cache.NewVBBMS(1024) }},
		{"PUD-LRU", func() cache.Policy { return cache.NewPUDLRU(1024, 16) }},
		{"ECR", func() cache.Policy { return cache.NewECR(1024, channels) }},
		{"Req-block", func() cache.Policy { return core.New(1024) }},
	}
	// The full option surface that streaming must reproduce; the
	// small/large threshold is explicit because RunSource cannot derive it
	// from a stream.
	opts := Options{
		TrackPageFates:      true,
		SmallThresholdPages: 4,
		SeriesInterval:      500,
		WarmupRequests:      100,
		IdleFlushNs:         2_000_000,
		QueueDepth:          8,
		TenantBoundaries: []int64{
			ts0.FootprintPages,
			ts0.FootprintPages + hm1.FootprintPages,
		},
	}
	for _, tc := range policies {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := trace.ReadMSR(bytes.NewReader(text), "eq")
			if err != nil {
				t.Fatal(err)
			}
			want, err := Run(tr, tc.mk(), testDevice(t), opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunSource(trace.Scan(bytes.NewReader(text), "eq"), tc.mk(), testDevice(t), opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("streaming replay diverged from materialized replay:\nmaterialized: %+v\nstreaming:    %+v", want, got)
			}
		})
	}
}

// TestStreamingReplayMatchesMaterializedWithFaults repeats the equivalence
// check under the PR-2 fault harness: injected program/erase failures,
// invariant checking, crash-at-request with periodic destaging, and a
// degraded (read-only) stop.
func TestStreamingReplayMatchesMaterializedWithFaults(t *testing.T) {
	text := msrText(t, churnTrace(400))
	configs := []struct {
		name string
		cfg  fault.Config
	}{
		{"seeded-faults-crash-destage", fault.Config{
			Seed:            3,
			ProgramFailProb: 0.002,
			GrownBadProb:    0.01,
			ReserveBlocks:   1000,
			CheckInvariants: true,
			CrashAtRequest:  120,
			DestageNs:       2_000_000,
		}},
		{"degraded-stop", fault.Config{
			EraseFailProb:   1,
			ReserveBlocks:   1,
			CheckInvariants: true,
		}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			// Explicit threshold: Run would auto-derive it from the
			// materialized trace, which a stream cannot reproduce.
			opts := Options{SmallThresholdPages: 8}
			opts.ApplyFaults(tc.cfg)
			tr, err := trace.ReadMSR(bytes.NewReader(text), "churn")
			if err != nil {
				t.Fatal(err)
			}
			want, err := Run(tr, cache.NewLRU(64), faultDevice(t, tc.cfg), opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunSource(trace.Scan(bytes.NewReader(text), "churn"),
				cache.NewLRU(64), faultDevice(t, tc.cfg), opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("faulted streaming replay diverged:\nmaterialized: %+v\nstreaming:    %+v", want, got)
			}
		})
	}
}
