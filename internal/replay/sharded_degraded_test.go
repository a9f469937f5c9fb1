package replay

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/leakcheck"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// TestShardSpecValidate is the table over the sharded spec surface: every
// meaningless or contradictory spec and options combination must make
// RunSharded fail up front, including the hash-region-size-vs-explicit-
// boundaries conflict (boundaries route requests; the region size would be
// dead configuration), and every valid one must run.
func TestShardSpecValidate(t *testing.T) {
	valid := func() ShardSpec {
		return ShardSpec{
			Shards: 2, TotalCapacityPages: 64,
			NewPolicy: func(_, n int) cache.Policy { return cache.NewLRU(n) },
			NewDevice: shardTestDevice,
		}
	}
	cases := []struct {
		name    string
		mutate  func(*ShardSpec)
		opts    Options
		wantErr bool
	}{
		{"valid", func(*ShardSpec) {}, Options{}, false},
		{"valid-regions", func(s *ShardSpec) { s.TenantRegionPages = 64 }, Options{}, false},
		{"valid-boundaries", func(*ShardSpec) {}, Options{TenantBoundaries: []int64{100}}, false},
		{"zero-shards", func(s *ShardSpec) { s.Shards = 0 }, Options{}, true},
		{"negative-shards", func(s *ShardSpec) { s.Shards = -1 }, Options{}, true},
		{"nil-policy", func(s *ShardSpec) { s.NewPolicy = nil }, Options{}, true},
		{"nil-device", func(s *ShardSpec) { s.NewDevice = nil }, Options{}, true},
		{"capacity-below-shards", func(s *ShardSpec) { s.TotalCapacityPages = 1 }, Options{}, true},
		{"negative-region-pages", func(s *ShardSpec) { s.TenantRegionPages = -1 }, Options{}, true},
		{"regions-vs-boundaries", func(s *ShardSpec) { s.TenantRegionPages = 64 },
			Options{TenantBoundaries: []int64{100}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := valid()
			tc.mutate(&spec)
			_, err := RunSharded(churnTrace(10).Source(), spec, tc.opts)
			if tc.wantErr && err == nil {
				t.Fatal("RunSharded() = nil error, want one")
			}
			if !tc.wantErr && err != nil {
				t.Fatalf("RunSharded() = %v, want nil", err)
			}
		})
	}
}

// twoRegionChurn alternates writes between two 128-page LPN regions so
// that, with a TenantBoundary at page 256, shard 0 and shard 1 each see a
// steady overwrite churn. Both regions fit the small 384-logical-page
// fault device (offsets are global: every shard's device spans the full
// LPN space).
func twoRegionChurn(n int) *trace.Trace {
	reqs := make([]trace.Request, n)
	for i := range reqs {
		page := int64((i/2)*8) % 128
		if i%2 == 1 {
			page += 256 // second tenant's region
		}
		reqs[i] = trace.Request{Time: int64(i) * 1_000_000, Write: true, Offset: page * 4096, Size: 8 * 4096}
	}
	return &trace.Trace{Name: "two-region-churn", Requests: reqs}
}

// TestShardedDegradedShardPropagates pins the sharded engine's behavior
// when ONE shard's device enters read-only mode mid-run: the run must
// finish without hanging (the degraded shard's horizon drain keeps
// yielding a record per routed request), the merged metrics must report
// Degraded, the healthy shard must keep processing, and the whole outcome
// must be deterministic run to run. The goroutine guard holds the
// router/relay/merger pipeline to a clean exit.
func TestShardedDegradedShardPropagates(t *testing.T) {
	leakcheck.Check(t)
	run := func() *Metrics {
		t.Helper()
		spec := ShardSpec{
			Shards: 2, Sharing: sim.SharingEqual, TotalCapacityPages: 128,
			NewPolicy: func(_, n int) cache.Policy { return cache.NewLRU(n) },
			NewDevice: func(shard int) (*ssd.Device, error) {
				p := ssd.DefaultParams()
				p.Flash.Channels = 2
				p.Flash.ChipsPerChannel = 2
				p.Flash.BlocksPerPlane = 16
				p.Flash.PagesPerBlock = 8
				p.Flash.OverProvision = 0.25
				p.Flash.GCThreshold = 0.25
				p.Precondition = 0
				if shard == 1 {
					// Only shard 1 degrades: first failed erase retires
					// past the reserve and flips read-only mode.
					p.Faults = fault.Config{EraseFailProb: 1, ReserveBlocks: 1}
				}
				return ssd.New(p)
			},
		}
		m, err := RunSharded(twoRegionChurn(800).Source(), spec,
			Options{TenantBoundaries: []int64{256}})
		if err != nil {
			t.Fatalf("one degraded shard must not fail the run: %v", err)
		}
		return m
	}

	m := run()
	if !m.Degraded {
		t.Fatal("merged metrics do not report the degraded shard")
	}
	// The healthy shard keeps serving its half of the stream: well over
	// the handful shard 1 manages before its device flips read-only.
	if m.Requests < 400 {
		t.Fatalf("only %d requests processed; healthy shard appears stalled", m.Requests)
	}
	if m.Requests >= 800 {
		t.Fatal("full trace processed despite a read-only shard")
	}
	if m.Device.DegradedEntries != 1 {
		t.Fatalf("degraded entries %d, want exactly 1 (one shard)", m.Device.DegradedEntries)
	}

	if m2 := run(); !reflect.DeepEqual(m, m2) {
		t.Fatal("degraded sharded run is not deterministic across runs")
	}
}
