package serve_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/replay"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// diffWorkload generates n page-aligned requests with strictly increasing
// arrivals: hot pages and sequential runs spread over 16 hash regions, so
// every shard count sees hits, evictions and large writes. It returns the
// trace for replay and the same requests as service ops.
func diffWorkload(n int) (*trace.Trace, []serve.Op) {
	const regionPages = 4096 // sim's default hash region
	rng := rand.New(rand.NewSource(1))
	reqs := make([]trace.Request, n)
	ops := make([]serve.Op, n)
	var seq [16]int64
	t := int64(0)
	for i := range reqs {
		t += 1 + rng.Int63n(int64(2*time.Millisecond))
		region := rng.Intn(len(seq))
		pages := 1 + rng.Intn(4)
		if rng.Intn(10) == 0 {
			pages = 16 + rng.Intn(17)
		}
		lpn := int64(region)*regionPages + rng.Int63n(256)
		if rng.Intn(4) == 0 {
			lpn = int64(region)*regionPages + 256 + seq[region]
			seq[region] = (seq[region] + int64(pages)) % (regionPages - 512)
		}
		write := rng.Intn(10) < 7
		reqs[i] = trace.Request{Time: t, Write: write, Offset: lpn * 4096, Size: int64(pages) * 4096}
		ops[i] = serve.Op{Write: write, LPN: lpn, Pages: pages}
	}
	return &trace.Trace{Name: "diff", Requests: reqs}, ops
}

// replayedResult is what the differential compares per request.
type replayedResult struct {
	latency      int64
	blame        sim.Blame
	hits, misses int
}

// resultCollector records each merged-stream result by global ordinal.
type resultCollector struct {
	sim.NopObserver
	out []replayedResult
}

func (c *resultCollector) OnResult(_ *sim.Engine, ev *sim.ResultEvent) {
	c.out[ev.Req.Index] = replayedResult{
		latency: ev.Completion - ev.Req.Issue, blame: ev.Blame,
		hits: ev.Res.Hits, misses: ev.Res.Misses,
	}
}

// TestServedMatchesReplayed is the served ≡ replayed differential with the
// overload ladder off: the same requests replayed through
// replay.RunSharded and submitted one at a time to a Server, whose fake
// clock sits at each request's arrival, must agree per request on the
// simulated latency, its blame split and the page hits and misses. Both
// sides build their shards through sim.BuildShards; a SHARED write window
// the shard cannot drain below would wedge a Submit here, so a Submit that
// has not returned within two seconds fails the test.
func TestServedMatchesReplayed(t *testing.T) {
	tr, ops := diffWorkload(3000)
	policies := []struct {
		name  string
		build func(_, capPages int) cache.Policy
	}{
		{"lru", lruPolicy},
		{"reqblock", func(_, n int) cache.Policy { return core.New(n) }},
		{"fab", func(_, n int) cache.Policy { return cache.NewFAB(n, 16) }},
		{"cflru", func(_, n int) cache.Policy { return cache.NewCFLRU(n) }},
	}
	// Aged devices join the equal-sharing rows. Their fill places LPNs
	// below 57,344, so diffWorkload's regions 0-13 read and rewrite pages
	// the fill placed, and regions 14-15 pages it did not.
	devices := []struct {
		suffix string
		build  func(int) (*ssd.Device, error)
	}{{"", testDevice}, {"/aged", agedTestDevice}}
	for _, pol := range policies {
		for _, shards := range []int{1, 2, 4} {
			for _, sharing := range []sim.SharingMode{sim.SharingShared, sim.SharingEqual} {
				for _, bp := range []int{0, 2} {
					for _, dev := range devices {
						if dev.suffix != "" && sharing != sim.SharingEqual {
							continue
						}
						name := fmt.Sprintf("%s/shards=%d/%v/bp=%d%s", pol.name, shards, sharing, bp, dev.suffix)
						t.Run(name, func(t *testing.T) {
							servedMatchesReplayed(t, tr, ops, shards, sharing, bp, pol.build, dev.build)
						})
					}
				}
			}
		}
	}
}

// servedMatchesReplayed is one TestServedMatchesReplayed row.
func servedMatchesReplayed(t *testing.T, tr *trace.Trace, ops []serve.Op, shards int, sharing sim.SharingMode, bp int,
	newPolicy func(_, capPages int) cache.Policy, newDevice func(int) (*ssd.Device, error)) {
	const capacity = 1024
	leakcheck.Check(t)
	want := &resultCollector{out: make([]replayedResult, len(ops))}
	if _, err := replay.RunSharded(tr.Source(), replay.ShardSpec{
		Shards: shards, Sharing: sharing, TotalCapacityPages: capacity,
		NewPolicy: newPolicy, NewDevice: newDevice,
	}, replay.Options{BackPressureDepth: bp, Observers: []sim.Observer{want}}); err != nil {
		t.Fatal(err)
	}

	clock := &fakeClock{}
	srv, err := serve.New(serve.Config{
		Shards: shards, Sharing: sharing, TotalCapacityPages: capacity,
		NewPolicy: newPolicy, NewDevice: newDevice,
		BackPressureDepth: bp,
		DefaultDeadlineNs: math.MaxInt64 / 2,
		Now:               clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() // wakes a wedged window waiter
	type submitted struct {
		resp serve.Response
		err  error
	}
	done := make(chan submitted, 1)
	timer := time.NewTimer(2 * time.Second)
	defer timer.Stop()
	for i, op := range ops {
		clock.ns.Store(tr.Requests[i].Time)
		go func() {
			resp, err := srv.Submit(op)
			done <- submitted{resp, err}
		}()
		timer.Reset(2 * time.Second)
		var got submitted
		select {
		case got = <-done:
		case <-timer.C:
			t.Fatalf("request %d (%+v): Submit has not returned after 2s", i, op)
		}
		if got.err != nil {
			t.Fatalf("request %d: %v", i, got.err)
		}
		r, w := got.resp, want.out[i]
		if r.Outcome != serve.OutcomeOK || r.SimLatencyNs != w.latency ||
			r.SimBlame != w.blame || r.Hits != w.hits || r.Misses != w.misses {
			t.Fatalf("request %d (%+v): served %v latency %d blame %v hits %d misses %d; replayed latency %d blame %v hits %d misses %d",
				i, op, r.Outcome, r.SimLatencyNs, r.SimBlame, r.Hits, r.Misses,
				w.latency, w.blame, w.hits, w.misses)
		}
	}
}
