package sim

import (
	"errors"
	"testing"

	"repro/internal/cache"
	"repro/internal/ssd"
)

// buildDevice builds a small fresh shard device; blocksPerPlane sets its
// logical size.
func buildDevice(blocksPerPlane int) (*ssd.Device, error) {
	p := ssd.DefaultParams()
	p.Flash.BlocksPerPlane = blocksPerPlane
	p.Flash.PagesPerBlock = 16
	p.Precondition = 0
	return ssd.New(p)
}

// validTopology is a two-shard config every TestBuildShardsValidation row
// starts from.
func validTopology() ShardConfig {
	return ShardConfig{
		Shards: 2, TotalCapacityPages: 64,
		NewPolicy: func(_, n int) cache.Policy { return cache.NewLRU(n) },
		NewDevice: func(int) (*ssd.Device, error) { return buildDevice(64) },
	}
}

// TestBuildShardsValidation is the one table of shard-topology rules. The
// sharded replay and the service front-end both build through BuildShards,
// so every rule holds for both; their own validation tests only check that
// the builder's errors reach their callers.
func TestBuildShardsValidation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*ShardConfig)
		wantErr bool
	}{
		{"valid", func(*ShardConfig) {}, false},
		{"valid-one-shard", func(c *ShardConfig) { c.Shards = 1 }, false},
		{"valid-regions", func(c *ShardConfig) { c.TenantRegionPages = 64 }, false},
		{"valid-boundaries", func(c *ShardConfig) { c.TenantBoundaries = []int64{0, 100, 200} }, false},
		{"valid-gc-budget", func(c *ShardConfig) { c.Engine.GCBudgetNs = 1 }, false},
		{"zero-shards", func(c *ShardConfig) { c.Shards = 0 }, true},
		{"negative-shards", func(c *ShardConfig) { c.Shards = -1 }, true},
		{"nil-new-policy", func(c *ShardConfig) { c.NewPolicy = nil }, true},
		{"nil-new-device", func(c *ShardConfig) { c.NewDevice = nil }, true},
		{"policy-returns-nil", func(c *ShardConfig) {
			c.NewPolicy = func(int, int) cache.Policy { return nil }
		}, true},
		{"device-error", func(c *ShardConfig) {
			c.NewDevice = func(int) (*ssd.Device, error) { return nil, errors.New("no device") }
		}, true},
		{"unequal-logical-sizes", func(c *ShardConfig) {
			c.NewDevice = func(k int) (*ssd.Device, error) { return buildDevice(64 + 64*k) }
		}, true},
		{"capacity-below-shards", func(c *ShardConfig) { c.TotalCapacityPages = 1 }, true},
		{"negative-back-pressure", func(c *ShardConfig) { c.BackPressureDepth = -1 }, true},
		{"negative-gc-budget", func(c *ShardConfig) { c.Engine.GCBudgetNs = -1 }, true},
		{"negative-stop-after", func(c *ShardConfig) { c.StopAfterRequests = -1 }, true},
		{"negative-region-pages", func(c *ShardConfig) { c.TenantRegionPages = -1 }, true},
		{"regions-vs-boundaries", func(c *ShardConfig) {
			c.TenantRegionPages = 64
			c.TenantBoundaries = []int64{100}
		}, true},
		{"unsorted-boundaries", func(c *ShardConfig) { c.TenantBoundaries = []int64{200, 100} }, true},
		{"negative-boundary", func(c *ShardConfig) { c.TenantBoundaries = []int64{-5, 100} }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validTopology()
			tc.mutate(&cfg)
			shards, err := BuildShards(cfg)
			if tc.wantErr {
				if err == nil {
					t.Fatal("BuildShards() = nil error, want one")
				}
				return
			}
			if err != nil {
				t.Fatalf("BuildShards() = %v, want nil", err)
			}
			if len(shards) != cfg.Shards {
				t.Fatalf("built %d shards, want %d", len(shards), cfg.Shards)
			}
		})
	}
}

// TestBuildShards pins what the builder does to a valid topology: policy
// capacity and soft quota per sharing mode (no quota for a lone shard),
// back-pressure on every device, and the GC scheduler turned on exactly
// when the engine config carries a GC budget.
func TestBuildShards(t *testing.T) {
	cases := []struct {
		sharing        SharingMode
		shards         int
		gcBudget       int64
		wantCap, quota int
	}{
		{SharingShared, 1, 0, 64, 0},
		{SharingShared, 2, 0, 64, 32},
		{SharingShared, 4, 30_000_000, 64, 16},
		{SharingEqual, 1, 0, 64, 0},
		{SharingEqual, 4, 30_000_000, 16, 0},
	}
	for _, tc := range cases {
		cfg := validTopology()
		cfg.Shards, cfg.Sharing, cfg.BackPressureDepth = tc.shards, tc.sharing, 2
		cfg.Engine = Config{IdleFlushNs: 7, GCBudgetNs: tc.gcBudget, SoftQuotaPages: 999}
		shards, err := BuildShards(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k, sh := range shards {
			if sh.CapacityPages != tc.wantCap || sh.Policy.CapacityPages() != tc.wantCap {
				t.Errorf("%v/%d shard %d: capacity %d (policy %d), want %d",
					tc.sharing, tc.shards, k, sh.CapacityPages, sh.Policy.CapacityPages(), tc.wantCap)
			}
			want := cfg.Engine
			want.SoftQuotaPages = tc.quota
			if sh.Engine != want {
				t.Errorf("%v/%d shard %d: engine config %+v, want %+v", tc.sharing, tc.shards, k, sh.Engine, want)
			}
			if got := sh.Device.GCSchedEnabled(); got != (tc.gcBudget > 0) {
				t.Errorf("%v/%d shard %d: GC scheduler enabled %v with budget %d",
					tc.sharing, tc.shards, k, got, tc.gcBudget)
			}
			if got := sh.Device.BackPressureDepth(); got != 2 {
				t.Errorf("%v/%d shard %d: back-pressure depth %d, want 2", tc.sharing, tc.shards, k, got)
			}
		}
	}
}

func TestShardQuota(t *testing.T) {
	cases := []struct {
		mode               SharingMode
		total, shards, k   int
		wantCap, wantQuota int
	}{
		{SharingEqual, 1024, 4, 0, 256, 0},
		{SharingEqual, 1026, 4, 0, 257, 0}, // remainder goes to low shards
		{SharingEqual, 1026, 4, 1, 257, 0},
		{SharingEqual, 1026, 4, 2, 256, 0},
		{SharingShared, 1024, 4, 0, 1024, 256},
		{SharingShared, 1024, 1, 0, 1024, 1024},
		{SharingEqual, 1024, 1, 0, 1024, 0},
	}
	for _, tc := range cases {
		gotCap, gotQuota := ShardQuota(tc.mode, tc.total, tc.shards, tc.k)
		if gotCap != tc.wantCap || gotQuota != tc.wantQuota {
			t.Errorf("ShardQuota(%v, %d, %d, %d) = (%d, %d), want (%d, %d)",
				tc.mode, tc.total, tc.shards, tc.k, gotCap, gotQuota, tc.wantCap, tc.wantQuota)
		}
	}
	// EQUAL slices must sum to the total.
	sum := 0
	for k := 0; k < 7; k++ {
		c, _ := ShardQuota(SharingEqual, 1000, 7, k)
		sum += c
	}
	if sum != 1000 {
		t.Errorf("EQUAL slices sum to %d, want 1000", sum)
	}
}

func TestParseSharing(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SharingMode
	}{{"shared", SharingShared}, {"equal", SharingEqual}} {
		got, err := ParseSharing(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSharing(%q) = (%v, %v), want (%v, nil)", tc.in, got, err, tc.want)
		}
		if got.String() != tc.in {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseSharing("both"); err == nil {
		t.Error("ParseSharing accepted an unknown mode")
	}
}

func TestShardOfRouting(t *testing.T) {
	// Tenant boundaries: tenant t covers [b_{t-1}, b_t) and maps to
	// t mod shards; pages past the last boundary take the next index.
	s := &ShardedEngine{cfg: ShardConfig{
		Shards:            2,
		TenantBoundaries:  []int64{100, 200, 300},
		TenantRegionPages: 64,
	}}
	cases := []struct {
		lpn  int64
		want int
	}{{0, 0}, {99, 0}, {100, 1}, {199, 1}, {200, 0}, {299, 0}, {300, 1}, {1000, 1}}
	for _, tc := range cases {
		if got := s.shardOf(tc.lpn); got != tc.want {
			t.Errorf("shardOf(%d) = %d, want %d", tc.lpn, got, tc.want)
		}
	}

	// Hash routing: deterministic, and spreads distinct regions across
	// all shards.
	h := &ShardedEngine{cfg: ShardConfig{Shards: 4, TenantRegionPages: 64}}
	seen := map[int]bool{}
	for region := int64(0); region < 64; region++ {
		k := h.shardOf(region * 64)
		if k != h.shardOf(region*64+63) {
			t.Fatalf("region %d split across shards", region)
		}
		if k < 0 || k >= 4 {
			t.Fatalf("shardOf out of range: %d", k)
		}
		seen[k] = true
	}
	if len(seen) != 4 {
		t.Errorf("hash routing used %d of 4 shards over 64 regions", len(seen))
	}
}
