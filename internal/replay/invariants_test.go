package replay

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestReplayInvariants attaches the cross-layer invariant watchdog to
// real replays: every paper policy, over open-loop, closed-loop and
// idle-flush configurations, on a workload long enough to force
// evictions. Any ordering or accounting violation in the engine pipeline
// fails here, whatever the metrics say.
func TestReplayInvariants(t *testing.T) {
	mkTrace := func() *trace.Trace {
		var reqs []trace.Request
		tm := int64(0)
		// Deterministic LCG mix of small/large reads and writes over a
		// footprint a 64-page cache must churn through.
		state := uint64(0x9e3779b97f4a7c15)
		next := func(n int64) int64 {
			state = state*6364136223846793005 + 1442695040888963407
			return int64(state>>33) % n
		}
		for i := 0; i < 400; i++ {
			tm += 200_000 + next(3_000_000)
			pages := 1 + next(10)
			reqs = append(reqs, trace.Request{
				Time:   tm,
				Write:  next(100) < 75,
				Offset: next(256) * 4096,
				Size:   pages * 4096,
			})
		}
		return &trace.Trace{Name: "invariants", Requests: reqs}
	}

	policies := map[string]func() cache.Policy{
		"req-block": func() cache.Policy { return core.New(64) },
		"lru":       func() cache.Policy { return cache.NewLRU(64) },
		"bplru":     func() cache.Policy { return cache.NewBPLRU(64, 8) },
		"fab":       func() cache.Policy { return cache.NewFAB(64, 8) },
	}
	configs := map[string]Options{
		"open-loop":   {},
		"closed-loop": {QueueDepth: 4},
		"idle-flush":  {IdleFlushNs: 1_000_000, GCBudgetNs: 30_000_000},
		"warmup":      {WarmupRequests: 100},
	}
	for pname, mk := range policies {
		for cname, opts := range configs {
			pname, cname, mk, opts := pname, cname, mk, opts
			t.Run(pname+"/"+cname, func(t *testing.T) {
				watchdog := &sim.InvariantObserver{}
				opts.Observers = []sim.Observer{watchdog}
				if _, err := Run(mkTrace(), mk(), testDevice(t), opts); err != nil {
					t.Fatal(err)
				}
				if err := watchdog.Err(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// quotaCounter counts SHARED-mode quota drains on a stream.
type quotaCounter struct {
	sim.NopObserver
	drains int
}

func (q *quotaCounter) OnEviction(_ *sim.Engine, ev *sim.EvictionEvent) {
	if ev.Kind == sim.EvictQuota {
		q.drains++
	}
}

// TestShardedSharedInvariants attaches the watchdog to a SHARED two-shard
// replay, on each shard's engine and on the merged stream: the quota
// drains that push borrowed capacity back out must pass its quota rule.
func TestShardedSharedInvariants(t *testing.T) {
	merged, quota := &sim.InvariantObserver{}, &quotaCounter{}
	perShard := []*sim.InvariantObserver{{}, {}}
	spec := ShardSpec{
		Shards: 2, Sharing: sim.SharingShared, TotalCapacityPages: 128,
		NewPolicy: func(_, n int) cache.Policy { return cache.NewLRU(n) },
		NewDevice: shardTestDevice,
		ShardObservers: func(k int, _ *sim.Engine) []sim.Observer {
			return []sim.Observer{perShard[k]}
		},
	}
	tr := twoRegionChurn(1200)
	var now int64
	for i := range tr.Requests {
		// Uneven gaps, so flush backlogs and completions vary.
		now += 100_000 * int64(1+i%7)
		tr.Requests[i].Time = now
	}
	_, err := RunSharded(tr.Source(), spec, Options{
		TenantBoundaries:  []int64{256},
		BackPressureDepth: 2,
		Observers:         []sim.Observer{merged, quota},
	})
	if err != nil {
		t.Fatal(err)
	}
	if quota.drains == 0 {
		t.Fatal("no quota drains: the run does not exercise SHARED pushback")
	}
	for i, o := range append(perShard, merged) {
		if err := o.Err(); err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
	}
}
