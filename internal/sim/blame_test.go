package sim

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// resultFunc adapts a closure into a results-only Observer.
type resultFunc func(*ResultEvent)

func (resultFunc) OnRequest(*Engine, *RequestEvent)      {}
func (resultFunc) OnEviction(*Engine, *EvictionEvent)    {}
func (f resultFunc) OnResult(_ *Engine, ev *ResultEvent) { f(ev) }
func (resultFunc) OnDone(*Engine, *DoneEvent)            {}

// blameTrace builds a workload that exercises every blame cause: a dense
// closed-loop write burst into a tiny cache (queue wait + eviction work +
// destage back-pressure) with interleaved cold reads (read-miss flash
// time) and an oversized bypass write.
func blameTrace() *trace.Trace {
	reqs := make([]trace.Request, 0, 260)
	tm := int64(0)
	for i := 0; i < 120; i++ {
		reqs = append(reqs, req(tm, true, int64(i*8)%4096, 8))
		tm += 500 // far denser than flash program time: queues build
		if i%10 == 3 {
			reqs = append(reqs, req(tm, false, int64(5000+i*4), 2))
			tm += 500
		}
	}
	// A request larger than the whole cache takes the bypass path.
	reqs = append(reqs, req(tm+1000, true, 8192, 600))
	return &trace.Trace{Name: "blame", Requests: reqs}
}

// Every result's blame partition must sum exactly to its response time —
// the attribution is a decomposition, not an estimate. This must hold
// under the closed loop, destage back-pressure, evictions, read misses,
// and the bypass path all at once.
func TestBlameSumsToResponseExactly(t *testing.T) {
	dev := testDevice(t)
	dev.SetBackPressure(2)
	// ResultEvent.Req points at reusable storage, so the partition is
	// checked at event time, not from saved copies.
	var seen [NumBlameCauses]bool
	var results int
	check := resultFunc(func(ev *ResultEvent) {
		results++
		if got, want := ev.Blame.Total(), ev.Completion-ev.Req.Arrival; got != want {
			t.Fatalf("request %d: blame total %d != response %d (blame %+v)",
				ev.Req.Index, got, want, ev.Blame)
		}
		for c := range ev.Blame.Ns {
			if ev.Blame.Ns[c] < 0 {
				t.Fatalf("request %d: negative %s blame %d", ev.Req.Index, BlameCause(c), ev.Blame.Ns[c])
			}
			seen[c] = seen[c] || ev.Blame.Ns[c] > 0
		}
		if ev.Blame.GCPauseNs < 0 || ev.Blame.ScanCost < 0 {
			t.Fatalf("request %d: negative side-channel blame %+v", ev.Req.Index, ev.Blame)
		}
	})
	// The bypass wrapper sends the oversized write down the write-around
	// path so BlameBypass has something to attribute.
	eng := New(blameTrace().Source(), cache.NewBypass(cache.NewLRU(512), 256), dev,
		Config{QueueDepth: 4, DestageNs: 200_000})
	eng.Observe(check)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if results == 0 {
		t.Fatal("no results observed")
	}
	// The workload is built to light up every cause; a cause that never
	// fires means its instrumentation point was lost.
	for c, ok := range seen {
		if !ok {
			t.Errorf("cause %s never attributed any time", BlameCause(c))
		}
	}
	// Back-pressure must actually have engaged for the stall assertion to
	// mean anything.
	if stalls, _ := dev.BackPressureStalls(); stalls == 0 {
		t.Fatal("workload did not engage back-pressure; stall blame untested")
	}
}

// Dominant picks the largest share, first cause winning ties.
func TestBlameDominant(t *testing.T) {
	var b Blame
	if b.Dominant() != BlameQueue {
		t.Fatalf("zero blame dominant = %s, want queue (first wins ties)", b.Dominant())
	}
	b.Ns[BlameRead] = 7
	b.Ns[BlameCache] = 7 // tie: earlier cause wins
	if b.Dominant() != BlameCache {
		t.Fatalf("tie dominant = %s, want cache", b.Dominant())
	}
	b.Ns[BlameStall] = 8
	if b.Dominant() != BlameStall {
		t.Fatalf("dominant = %s, want stall", b.Dominant())
	}
	if b.Total() != 22 {
		t.Fatalf("Total = %d", b.Total())
	}
}

// shardBlameSink collects per-request blame from the merged stream and,
// via ShardAware, the per-shard callbacks — both must carry the same
// partition (the relay deep-copies results across the shard boundary).
type shardBlameSink struct {
	NopObserver
	merged  map[int]Blame
	byShard map[int]Blame
	resp    map[int]int64
}

func (s *shardBlameSink) OnResult(_ *Engine, ev *ResultEvent) {
	s.merged[ev.Req.Index] = ev.Blame
	s.resp[ev.Req.Index] = ev.Completion - ev.Req.Arrival
}

func (s *shardBlameSink) OnShardResult(_ int, _ []int, ev *ResultEvent) {
	s.byShard[ev.Req.Index] = ev.Blame
}

// A single-shard run forced through the router/relay/merger must
// reproduce the unsharded engine's blame spans bit for bit: the relay's
// copy, the merger's rebuild, and the ShardAware fan-out all preserve the
// partition.
func TestShardedBlameSurvivesRelay(t *testing.T) {
	mk := func() (*shardBlameSink, func() (DoneEvent, error)) {
		sink := &shardBlameSink{
			merged:  map[int]Blame{},
			byShard: map[int]Blame{},
			resp:    map[int]int64{},
		}
		eng, err := newSharded(blameTrace().Source(), ShardConfig{
			Shards: 1, Sharing: SharingShared, TotalCapacityPages: 512,
			NewPolicy: func(_, n int) cache.Policy { return cache.NewLRU(n) },
			NewDevice: func(int) (*ssd.Device, error) {
				p := ssd.DefaultParams()
				p.Flash.BlocksPerPlane = 512
				p.Flash.PagesPerBlock = 16
				p.Precondition = 0
				return ssd.New(p)
			},
			BackPressureDepth: 2,
			Engine:            Config{QueueDepth: 4, DestageNs: 200_000},
		}, true)
		if err != nil {
			t.Fatal(err)
		}
		eng.Observe(sink)
		return sink, eng.Run
	}
	sink, run := mk()
	if _, err := run(); err != nil {
		t.Fatal(err)
	}
	if len(sink.merged) == 0 || len(sink.merged) != len(sink.byShard) {
		t.Fatalf("merged %d results, per-shard %d", len(sink.merged), len(sink.byShard))
	}

	// Reference: the unsharded engine on an identical device.
	ref := map[int]Blame{}
	dev := testDevice(t)
	dev.SetBackPressure(2)
	ueng := New(blameTrace().Source(), cache.NewLRU(512), dev,
		Config{QueueDepth: 4, DestageNs: 200_000})
	ueng.Observe(resultFunc(func(ev *ResultEvent) { ref[ev.Req.Index] = ev.Blame }))
	if _, err := ueng.Run(); err != nil {
		t.Fatal(err)
	}

	if len(ref) != len(sink.merged) {
		t.Fatalf("unsharded %d results, sharded %d", len(ref), len(sink.merged))
	}
	for idx, want := range ref {
		if got := sink.merged[idx]; got != want {
			t.Fatalf("request %d: merged blame %+v != unsharded %+v", idx, got, want)
		}
		if got := sink.byShard[idx]; got != want {
			t.Fatalf("request %d: per-shard blame %+v != unsharded %+v", idx, got, want)
		}
		if total, resp := want.Total(), sink.resp[idx]; total != resp {
			t.Fatalf("request %d: merged blame total %d != merged response %d", idx, total, resp)
		}
	}
}
