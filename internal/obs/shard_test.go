package obs

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// A sharded replay with per-shard instrument sets must agree with the
// merged metrics in aggregate: shard request counts sum to the global
// processed count, shard flash writes sum to the aggregated device
// counters, and every shard's family shows up in the exposition.
func TestShardTelemetry(t *testing.T) {
	const shards = 4
	tel := New()
	spec := replay.ShardSpec{
		Shards:             shards,
		Sharing:            sim.SharingEqual,
		TotalCapacityPages: 256,
		NewPolicy:          func(_, capPages int) cache.Policy { return cache.NewLRU(capPages) },
		NewDevice: func(int) (*ssd.Device, error) {
			p := ssd.DefaultParams()
			p.Flash.BlocksPerPlane = 512
			p.Flash.PagesPerBlock = 16
			p.Precondition = 0
			return ssd.New(p)
		},
		TenantRegionPages: 8,
		ShardObservers:    tel.ShardObservers(shards),
	}
	opts := replay.Options{
		WarmupRequests: 50,
		Observers:      []sim.Observer{tel.Observer()},
	}
	m, err := replay.RunSharded(churnTrace(800).Source(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}

	if len(tel.Shards) != shards {
		t.Fatalf("Telemetry.Shards has %d sets, want %d", len(tel.Shards), shards)
	}
	var reqs, writes, flushed int64
	active := 0
	for _, s := range tel.Shards {
		reqs += s.Requests.Value()
		writes += s.FlashWrites.Value()
		flushed += s.FlushedPages.Value()
		if s.Requests.Value() > 0 {
			active++
			if s.ReqLatency.Count() != s.Requests.Value() {
				t.Fatalf("shard latency count %d != requests %d", s.ReqLatency.Count(), s.Requests.Value())
			}
			if s.Capacity.Value() == 0 {
				t.Fatal("active shard never refreshed its capacity gauge")
			}
		}
	}
	if active < 2 {
		t.Fatalf("only %d shards saw traffic; trace/routing too narrow for the test", active)
	}
	if reqs != int64(m.Requests) {
		t.Fatalf("shard requests sum to %d, merged metrics say %d", reqs, m.Requests)
	}
	if writes != m.Device.FlashWrites {
		t.Fatalf("shard flash writes sum to %d, aggregated counters say %d", writes, m.Device.FlashWrites)
	}
	if flushed == 0 {
		t.Fatal("no shard flushed anything through a 256-page cache")
	}
	if got := tel.Requests.Value(); got != int64(m.Requests) {
		t.Fatalf("merged Requests = %d, metrics say %d", got, m.Requests)
	}

	var sb strings.Builder
	if err := tel.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < shards; k++ {
		if !strings.Contains(sb.String(), fmt.Sprintf("ssdsim_shard%d_requests_total", k)) {
			t.Fatalf("exposition missing shard %d instruments", k)
		}
	}
}

// A nil Telemetry's shard hook must be attachable and inert.
func TestShardObserversNilTelemetry(t *testing.T) {
	var tel *Telemetry
	hook := tel.ShardObservers(4)
	if obs := hook(0, nil); len(obs) != 0 {
		t.Fatalf("nil telemetry returned %d shard observers", len(obs))
	}
}

// One P99 across a replay, its telemetry and its shards. With no warmup
// every request is warm, so the replay's percentiles read a histogram
// equal to the one the catalog exposes; the per-shard histograms merge
// into the global one exactly; and each blame row's power-of-two fold
// holds the histogram's quantile.
func TestOneLatencyAcrossReplayTelemetryShards(t *testing.T) {
	tr := testTrace(t)
	for _, shards := range []int{1, 4} {
		tel := New()
		spec := replay.ShardSpec{
			Shards:             shards,
			Sharing:            sim.SharingEqual,
			TotalCapacityPages: 1024,
			NewPolicy:          func(_, capPages int) cache.Policy { return cache.NewLRU(capPages) },
			NewDevice:          func(int) (*ssd.Device, error) { return testDevice(t), nil },
			TenantRegionPages:  8,
			ShardObservers:     tel.ShardObservers(shards),
		}
		m, err := replay.RunSharded(tr.Source(), spec, replay.Options{
			Observers: []sim.Observer{tel.Observer()},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m.ResponseHist, tel.ReqLatency) {
			t.Fatalf("%d shards: replay histogram differs from ssdsim_request_latency_ns", shards)
		}
		for _, p := range []metrics.Percentile{m.ResponseP50, m.ResponseP99, m.ResponseP999} {
			want := tel.ReqLatency.Quantile(p.Q)
			if p.Value() != float64(want) || want == 0 {
				t.Fatalf("%d shards: replay P%g = %v, telemetry %d", shards, p.Q*100, p.Value(), want)
			}
		}
		merged := &metrics.LogHist{}
		active := 0
		for _, s := range tel.Shards {
			merged.Merge(s.ReqLatency)
			if s.ReqLatency.Count() > 0 {
				active++
			}
		}
		if active != shards {
			t.Fatalf("%d of %d shards saw traffic", active, shards)
		}
		if !reflect.DeepEqual(merged, tel.ReqLatency) {
			t.Fatalf("%d shards: merged shard histograms differ from the global one", shards)
		}
		rows := tel.Blame.BlameTable(0.5, 0.99, 0.999)
		if len(rows) != 3 {
			t.Fatalf("%d shards: %d blame rows", shards, len(rows))
		}
		for _, r := range rows {
			if v := tel.ReqLatency.Quantile(r.Quantile); v <= r.UpperNs/2 || v > r.UpperNs {
				t.Fatalf("%d shards: P%g = %d outside its blame fold (%d, %d]",
					shards, r.Quantile*100, v, r.UpperNs/2, r.UpperNs)
			}
		}
	}
}
