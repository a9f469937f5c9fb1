package replay

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
	"repro/internal/workload"
)

// shardTestDevice mirrors testDevice for sharded specs: every shard gets
// an identical fresh device.
func shardTestDevice(int) (*ssd.Device, error) {
	p := ssd.DefaultParams()
	p.Flash.BlocksPerPlane = 512
	p.Flash.PagesPerBlock = 16
	p.Precondition = 0
	return ssd.New(p)
}

// TestShardedDeterministicAcrossRuns pins the sequence-number merge: a
// multi-shard replay run twice must produce DeepEqual metrics AND a
// byte-identical Perfetto export of every request, for both sharing
// modes, with tenant routing and with hash routing. Goroutine scheduling
// varies between the runs; the merge must hide it completely.
func TestShardedDeterministicAcrossRuns(t *testing.T) {
	leakcheck.Check(t)
	ts0, hm1 := workload.TS0(), workload.HM1()
	mix, err := workload.Mix("eq", workload.Options{Scale: 0.01}, ts0, hm1)
	if err != nil {
		t.Fatal(err)
	}
	text := msrText(t, mix)
	boundaries := []int64{ts0.FootprintPages, ts0.FootprintPages + hm1.FootprintPages}

	cases := []struct {
		name    string
		shards  int
		sharing sim.SharingMode
		tenants []int64
	}{
		{"2-shards-shared-tenants", 2, sim.SharingShared, boundaries},
		{"2-shards-equal-tenants", 2, sim.SharingEqual, boundaries},
		{"4-shards-shared-hash", 4, sim.SharingShared, nil},
		{"4-shards-equal-hash", 4, sim.SharingEqual, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func() (*Metrics, []byte) {
				var out bytes.Buffer
				exp := obs.NewTraceExport(&out, 1, 42)
				opts := Options{
					TrackPageFates:      true,
					SmallThresholdPages: 4,
					SeriesInterval:      500,
					WarmupRequests:      100,
					IdleFlushNs:         2_000_000,
					QueueDepth:          8,
					TenantBoundaries:    tc.tenants,
					Observers:           []sim.Observer{exp},
				}
				// Hash-region size only without explicit boundaries: the
				// combination is rejected as contradictory (sim.NewSharded).
				regionPages := int64(64)
				if len(tc.tenants) > 0 {
					regionPages = 0
				}
				m, err := RunSharded(trace.Scan(bytes.NewReader(text), "eq"), ShardSpec{
					Shards:             tc.shards,
					Sharing:            tc.sharing,
					TotalCapacityPages: 1024,
					NewPolicy:          func(_, n int) cache.Policy { return core.New(n) },
					NewDevice:          shardTestDevice,
					TenantRegionPages:  regionPages,
				}, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := exp.Close(); err != nil {
					t.Fatal(err)
				}
				return m, out.Bytes()
			}
			m1, trace1 := run()
			m2, trace2 := run()
			if !reflect.DeepEqual(m1, m2) {
				t.Fatalf("sharded replay not deterministic:\nrun1: %+v\nrun2: %+v", m1, m2)
			}
			if !bytes.Equal(trace1, trace2) {
				t.Fatalf("trace exports differ between runs (%d vs %d bytes)",
					len(trace1), len(trace2))
			}
			if m1.Requests == 0 {
				t.Fatal("sharded replay processed no requests")
			}
		})
	}
}

// TestShardedCrashDeterministic pins the router's global stream cut: a
// multi-shard crash run is deterministic and loses the dirty pages still
// buffered across all shards.
func TestShardedCrashDeterministic(t *testing.T) {
	leakcheck.Check(t)
	text := msrText(t, churnTrace(400))
	run := func() *Metrics {
		m, err := RunSharded(trace.Scan(bytes.NewReader(text), "churn"), ShardSpec{
			Shards:             4,
			Sharing:            sim.SharingEqual,
			TotalCapacityPages: 256,
			NewPolicy:          func(_, n int) cache.Policy { return cache.NewLRU(n) },
			NewDevice:          shardTestDevice,
			TenantRegionPages:  16,
		}, Options{CrashAtRequest: 200})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1, m2 := run(), run()
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("crash run not deterministic:\nrun1: %+v\nrun2: %+v", m1, m2)
	}
	if !m1.Crashed || m1.CrashedAtRequest != 200 {
		t.Fatalf("Crashed/CrashedAtRequest = %v/%d, want true/200", m1.Crashed, m1.CrashedAtRequest)
	}
	if m1.Requests != 200 {
		t.Fatalf("Requests = %d, want 200 (stream cut at the crash ordinal)", m1.Requests)
	}
	if m1.LostDirtyPages == 0 {
		t.Fatal("LostDirtyPages = 0, want buffered dirty pages summed across shards")
	}
}

// TestShardedSharingModesDiffer checks the capacity semantics actually
// differ: under a skewed workload, SHARED lets the hot shard borrow global
// capacity (fewer flushed pages) while EQUAL caps it at capacity/N.
func TestShardedSharingModesDiffer(t *testing.T) {
	// Heavily skewed: almost all traffic lands in one hash region.
	reqs := make([]trace.Request, 600)
	for i := range reqs {
		page := int64(i*4) % 512 // hot 512-page working set → one region
		if i%16 == 15 {
			page = 4096 + int64(i) // occasional cold touch elsewhere
		}
		reqs[i] = trace.Request{Time: int64(i) * 1_000_000, Write: true, Offset: page * 4096, Size: 4 * 4096}
	}
	text := msrText(t, &trace.Trace{Name: "skew", Requests: reqs})
	run := func(sharing sim.SharingMode) *Metrics {
		m, err := RunSharded(trace.Scan(bytes.NewReader(text), "skew"), ShardSpec{
			Shards:             4,
			Sharing:            sharing,
			TotalCapacityPages: 1024,
			NewPolicy:          func(_, n int) cache.Policy { return cache.NewLRU(n) },
			NewDevice:          shardTestDevice,
			TenantRegionPages:  1024,
		}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	shared, equal := run(sim.SharingShared), run(sim.SharingEqual)
	if shared.HitRatio() <= equal.HitRatio() {
		t.Fatalf("SHARED hit ratio %.3f not above EQUAL %.3f on a skewed workload",
			shared.HitRatio(), equal.HitRatio())
	}
}

// TestBackPressureAdmission checks the bounded destage backlog: depth 0
// leaves the replay bit-identical, a tight depth produces admission stalls
// that delay response times, and the stall counters report it.
func TestBackPressureAdmission(t *testing.T) {
	text := msrText(t, churnTrace(400))
	run := func(depth int) *Metrics {
		m, err := RunSource(trace.Scan(bytes.NewReader(text), "churn"),
			cache.NewLRU(64), testDevice(t), Options{BackPressureDepth: depth})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	base := run(0)
	if base.BackPressureStalls != 0 || base.BackPressureStallNs != 0 {
		t.Fatalf("depth 0 recorded stalls: %d/%dns", base.BackPressureStalls, base.BackPressureStallNs)
	}
	tight := run(1)
	if tight.BackPressureStalls == 0 || tight.BackPressureStallNs == 0 {
		t.Fatal("depth 1 recorded no stalls on a churn workload")
	}
	if tight.Response.Mean() <= base.Response.Mean() {
		t.Fatalf("back-pressure did not delay responses: %.0f <= %.0f",
			tight.Response.Mean(), base.Response.Mean())
	}
	// Back-pressure delays admissions; it never changes what gets written.
	if tight.Device.FlashWrites != base.Device.FlashWrites {
		t.Fatalf("back-pressure changed flash writes: %d vs %d",
			tight.Device.FlashWrites, base.Device.FlashWrites)
	}
}

// TestShardedDeviceCountersSumShards reflects over ssd.Counters: each
// field of a two-shard, GC-bound, fault-injected run's Metrics.Device
// must equal that field summed over the shards' devices, so a counter the
// aggregation forgets fails here instead of reading 0. The run must
// exercise every counter but DegradedEntries, or the sums prove nothing.
func TestShardedDeviceCountersSumShards(t *testing.T) {
	var devs []*ssd.Device
	spec := ShardSpec{
		Shards: 2, Sharing: sim.SharingShared, TotalCapacityPages: 128,
		NewPolicy: func(_, n int) cache.Policy { return cache.NewLRU(n) },
		NewDevice: func(k int) (*ssd.Device, error) {
			p := ssd.DefaultParams()
			p.Flash.Channels = 2
			p.Flash.ChipsPerChannel = 2
			p.Flash.BlocksPerPlane = 16
			p.Flash.PagesPerBlock = 8
			p.Flash.OverProvision = 0.25
			p.Flash.GCThreshold = 0.25
			p.Precondition = 0.5
			p.Faults = fault.Config{
				Seed: uint64(k) + 1, ProgramFailProb: 0.003, EraseFailProb: 0.01, GrownBadProb: 0.01,
				ReserveBlocks: 1000, CheckInvariants: true,
			}
			dev, err := ssd.New(p)
			devs = append(devs, dev)
			return dev, err
		},
	}
	tr := twoRegionChurn(1600)
	for i := range tr.Requests {
		if i%4 == 3 {
			tr.Requests[i].Write = false
		}
	}
	m, err := RunSharded(tr.Source(), spec, Options{TenantBoundaries: []int64{256}, BackPressureDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(devs) != 2 {
		t.Fatalf("%d devices built, want 2", len(devs))
	}
	got := reflect.ValueOf(m.Device)
	for i := 0; i < got.NumField(); i++ {
		name := got.Type().Field(i).Name
		if got.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("ssd.Counters.%s is %s: extend this test to aggregate it", name, got.Field(i).Kind())
		}
		var sum int64
		for _, dev := range devs {
			sum += reflect.ValueOf(dev.Counters()).Field(i).Int()
		}
		if g := got.Field(i).Int(); g != sum {
			t.Errorf("Device.%s = %d, want %d summed over the shards", name, g, sum)
		}
		if sum == 0 && name != "DegradedEntries" {
			t.Errorf("Device.%s is 0 on every shard: the run does not exercise it", name)
		}
	}
}

// TestShardedGCBudgetSchedulesIdleSlices pins the GC budget under
// sharding: two GC-bound shards with idle windows and a budget must grant
// the shard devices' schedulers idle slices (jobs preempted and resumed),
// and each field of Metrics.GCSched must equal that field summed over the
// shards' devices, so a sharded run cannot drop the budget or a counter.
func TestShardedGCBudgetSchedulesIdleSlices(t *testing.T) {
	tr := workload.MustGenerate(workload.SRC12(), workload.Options{Scale: 0.05})
	params := ssd.ScaledParams(64)
	params.Precondition = 0.9
	var devs []*ssd.Device
	spec := ShardSpec{
		Shards: 2, Sharing: sim.SharingShared, TotalCapacityPages: 4 * 256,
		NewPolicy: func(_, n int) cache.Policy { return cache.NewFAB(n, params.Flash.PagesPerBlock) },
		NewDevice: func(int) (*ssd.Device, error) {
			dev, err := ssd.New(params)
			devs = append(devs, dev)
			return dev, err
		},
	}
	m, err := RunShardedTrace(tr, int64(params.Flash.PageSize), spec, Options{
		IdleFlushNs: 2_000_000,
		GCBudgetNs:  10_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.GCSched.Preempts == 0 || m.GCSched.Resumes == 0 {
		t.Fatalf("no idle GC slices granted across shards: %+v", m.GCSched)
	}
	got := reflect.ValueOf(m.GCSched)
	for i := 0; i < got.NumField(); i++ {
		name := got.Type().Field(i).Name
		if got.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("ftl.GCSchedStats.%s is %s: extend this test to aggregate it", name, got.Field(i).Kind())
		}
		var sum int64
		for _, dev := range devs {
			sum += reflect.ValueOf(dev.GCSchedStats()).Field(i).Int()
		}
		if g := got.Field(i).Int(); g != sum {
			t.Errorf("GCSched.%s = %d, want %d summed over the shards", name, g, sum)
		}
	}
}
