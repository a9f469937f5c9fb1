package sim

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/leakcheck"
	"repro/internal/ssd"
	"repro/internal/trace"
	"repro/internal/workload"
)

// streamCall is one merged-stream observer call, deep-copied: the events
// and the slices inside them are reused after the call returns.
type streamCall struct {
	kind  string
	req   RequestEvent
	evict EvictionEvent
	res   cache.Result
	// Result fields beside Req and Res.
	completion, processed, nodeCount, prefetched int64
	blame                                        Blame
	shard                                        int
	occ                                          []int
	done                                         DoneEvent
}

// streamLog records every merged-stream call, ShardAware included.
type streamLog struct{ calls []streamCall }

func copyLPNs(s []int64) []int64 { return append([]int64(nil), s...) }

func (l *streamLog) OnRequest(_ *Engine, ev *RequestEvent) {
	l.calls = append(l.calls, streamCall{kind: "request", req: *ev})
}

func (l *streamLog) OnEviction(_ *Engine, ev *EvictionEvent) {
	cp := *ev
	cp.LPNs = copyLPNs(ev.LPNs)
	l.calls = append(l.calls, streamCall{kind: "eviction", evict: cp})
}

func (l *streamLog) OnResult(_ *Engine, ev *ResultEvent) {
	res := *ev.Res
	res.ReadMisses = copyLPNs(res.ReadMisses)
	res.Prefetches = copyLPNs(res.Prefetches)
	res.Bypass = copyLPNs(res.Bypass)
	res.Evictions = nil
	for _, e := range ev.Res.Evictions {
		e.LPNs, e.PaddingReads = copyLPNs(e.LPNs), copyLPNs(e.PaddingReads)
		res.Evictions = append(res.Evictions, e)
	}
	l.calls = append(l.calls, streamCall{
		kind: "result", req: *ev.Req, res: res,
		completion: ev.Completion, processed: int64(ev.Processed),
		nodeCount: int64(ev.NodeCount), prefetched: int64(ev.Prefetched),
		blame: ev.Blame,
	})
}

func (l *streamLog) OnShardResult(shard int, occ []int, ev *ResultEvent) {
	l.calls = append(l.calls, streamCall{
		kind: "shard-result", shard: shard, processed: int64(ev.Processed),
		occ: append([]int(nil), occ...),
	})
}

func (l *streamLog) OnDone(_ *Engine, ev *DoneEvent) {
	l.calls = append(l.calls, streamCall{kind: "done", done: *ev})
}

// runOneShard runs cfg (one shard) through the direct path or, with
// pipeline set, through the router/relay/merger, and logs the merged
// stream.
func runOneShard(t *testing.T, tr *trace.Trace, cfg ShardConfig, pipeline bool) ([]streamCall, bool) {
	t.Helper()
	eng, err := newSharded(tr.Source(), cfg, pipeline)
	if err != nil {
		t.Fatal(err)
	}
	if eng.direct == pipeline {
		t.Fatalf("pipeline=%v built direct=%v", pipeline, eng.direct)
	}
	log := &streamLog{}
	eng.Observe(log)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return log.calls, eng.StoppedFeeding()
}

// assertDirectMatchesPipeline holds the one-shard direct path to the
// pipeline call for call, and checks the run exercised what it claims.
func assertDirectMatchesPipeline(t *testing.T, tr *trace.Trace, cfg ShardConfig) []streamCall {
	t.Helper()
	want, wantStop := runOneShard(t, tr, cfg, true)
	got, gotStop := runOneShard(t, tr, cfg, false)
	if wantStop != gotStop {
		t.Fatalf("StoppedFeeding: direct %v, pipeline %v", gotStop, wantStop)
	}
	for i := 0; i < min(len(want), len(got)); i++ {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("call %d diverged:\npipeline: %+v\ndirect:   %+v", i, want[i], got[i])
		}
	}
	if len(want) != len(got) {
		t.Fatalf("direct made %d observer calls, pipeline %d", len(got), len(want))
	}
	kinds := map[string]int{}
	for _, c := range got {
		kinds[c.kind]++
	}
	if kinds["result"] == 0 || kinds["eviction"] == 0 || kinds["shard-result"] != kinds["result"] || kinds["done"] != 1 {
		t.Fatalf("run exercised too little: %v", kinds)
	}
	return got
}

func oneShardDevice(faults fault.Config) func(int) (*ssd.Device, error) {
	return func(int) (*ssd.Device, error) {
		p := ssd.DefaultParams()
		p.Flash.BlocksPerPlane = 512
		p.Flash.PagesPerBlock = 16
		p.Precondition = 0
		if faults.Enabled() {
			p.Flash.Channels = 2
			p.Flash.ChipsPerChannel = 2
			p.Flash.BlocksPerPlane = 16
			p.Flash.PagesPerBlock = 8
			p.Flash.OverProvision = 0.25
			p.Flash.GCThreshold = 0.25
			p.Faults = faults
		}
		return ssd.New(p)
	}
}

// TestShardedOneShardDirectMatchesPipeline is the sharded engine's anchor:
// one shard runs its engine directly, and the merged-stream observers must
// receive exactly the calls the router/relay/merger pipeline hands them
// — every request, eviction, result (cache decision, blame, node count),
// ShardAware occupancy sample and the run summary — for every policy
// family and both sharing modes, with warmup, idle flushing, a closed
// loop, tenant boundaries, back-pressure and periodic destaging on.
func TestShardedOneShardDirectMatchesPipeline(t *testing.T) {
	ts0, hm1 := workload.TS0(), workload.HM1()
	mix, err := workload.Mix("eq", workload.Options{Scale: 0.01}, ts0, hm1)
	if err != nil {
		t.Fatal(err)
	}
	channels := ssd.DefaultParams().Flash.Channels
	policies := []struct {
		name string
		mk   func(capacityPages int) cache.Policy
	}{
		{"LRU", func(n int) cache.Policy { return cache.NewLRU(n) }},
		{"CFLRU", func(n int) cache.Policy { return cache.NewCFLRU(n) }},
		{"FAB", func(n int) cache.Policy { return cache.NewFAB(n, 16) }},
		{"BPLRU", func(n int) cache.Policy { return cache.NewBPLRU(n, 16) }},
		{"VBBMS", func(n int) cache.Policy { return cache.NewVBBMS(n) }},
		{"PUD-LRU", func(n int) cache.Policy { return cache.NewPUDLRU(n, 16) }},
		{"ECR", func(n int) cache.Policy { return cache.NewECR(n, channels) }},
		{"Req-block", func(n int) cache.Policy { return core.New(n) }},
	}
	for _, tc := range policies {
		t.Run(tc.name, func(t *testing.T) {
			for _, sharing := range []SharingMode{SharingShared, SharingEqual} {
				calls := assertDirectMatchesPipeline(t, mix, ShardConfig{
					Shards:             1,
					Sharing:            sharing,
					TotalCapacityPages: 1024,
					NewPolicy:          func(_, n int) cache.Policy { return tc.mk(n) },
					NewDevice:          oneShardDevice(fault.Config{}),
					TenantBoundaries:   []int64{ts0.FootprintPages, ts0.FootprintPages + hm1.FootprintPages},
					BackPressureDepth:  4,
					Engine: Config{
						WarmupRequests: 100,
						IdleFlushNs:    2_000_000,
						QueueDepth:     8,
						DestageNs:      50_000_000,
					},
					CaptureOccupancy: true,
				})
				if _, ok := tc.mk(16).(cache.OccupancySampler); ok {
					if occ := calls[len(calls)-2].occ; len(occ) == 0 {
						t.Fatalf("%v: occupancy sampler reported no lists", sharing)
					}
				}
			}
		})
	}
}

// TestShardedOneShardDirectMatchesPipelineWithFaults repeats the anchor
// under the fault harness: injected failures with a crash cut
// (StopAfterRequests: the router stops routing, the direct path stops
// its engine) and periodic destaging, and a degraded (read-only) stop.
func TestShardedOneShardDirectMatchesPipelineWithFaults(t *testing.T) {
	reqs := make([]trace.Request, 400)
	for i := range reqs {
		reqs[i] = req(int64(i)*1_000_000, true, int64(i*8)%256, 8)
	}
	churn := &trace.Trace{Name: "churn", Requests: reqs}
	configs := []struct {
		name      string
		faults    fault.Config
		stopAfter int
		destageNs int64
	}{
		{"seeded-faults-crash-destage", fault.Config{
			Seed: 3, ProgramFailProb: 0.002, GrownBadProb: 0.01,
			ReserveBlocks: 1000, CheckInvariants: true,
		}, 120, 2_000_000},
		{"degraded-stop", fault.Config{
			EraseFailProb: 1, ReserveBlocks: 1, CheckInvariants: true,
		}, 0, 0},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			calls := assertDirectMatchesPipeline(t, churn, ShardConfig{
				Shards:             1,
				Sharing:            SharingEqual,
				TotalCapacityPages: 64,
				NewPolicy:          func(_, n int) cache.Policy { return cache.NewLRU(n) },
				NewDevice:          oneShardDevice(tc.faults),
				Engine:             Config{DestageNs: tc.destageNs},
				StopAfterRequests:  tc.stopAfter,
			})
			done := calls[len(calls)-1].done
			if tc.stopAfter > 0 && (done.Processed != tc.stopAfter || !done.Stopped) {
				t.Fatalf("crash cut: processed %d (stopped %v), want %d", done.Processed, done.Stopped, tc.stopAfter)
			}
			if tc.stopAfter == 0 && !done.Degraded {
				t.Fatal("degraded-stop run did not degrade")
			}
		})
	}
}

// TestShardedOneShardStartsOnlyTheReadAhead checks a one-shard run starts
// no shard goroutine and no relay or merger: while it runs, the read-ahead
// filler is the only goroutine it adds, and that one is joined on return.
func TestShardedOneShardStartsOnlyTheReadAhead(t *testing.T) {
	leakcheck.Check(t)
	reqs := make([]trace.Request, 4000)
	for i := range reqs {
		reqs[i] = req(int64(i)*10_000, true, int64(i%512)*4, 4)
	}
	eng, err := NewSharded((&trace.Trace{Name: "long", Requests: reqs}).Source(), ShardConfig{
		Shards: 1, TotalCapacityPages: 256,
		NewPolicy: func(_, n int) cache.Policy { return cache.NewLRU(n) },
		NewDevice: oneShardDevice(fault.Config{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	before, most := runtime.NumGoroutine(), 0
	eng.Observe(resultFunc(func(*ResultEvent) { most = max(most, runtime.NumGoroutine()) }))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if most > before+1 {
		t.Fatalf("%d goroutines during the run, %d before: more than the read-ahead filler", most, before)
	}
}
