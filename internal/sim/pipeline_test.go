package sim

import (
	"bytes"
	"errors"
	"fmt"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/leakcheck"
	"repro/internal/trace"
)

// readAheadRing is how far trace.ReadAhead may pull its source past what
// its consumer took: four batches of 512 requests.
const readAheadRing = 4 * 512

// twoShards returns a two-shard LRU topology and the device's logical
// size. Tenant boundaries send the lower half of the logical space to
// shard 0 and the upper half to shard 1; a third tenant past the end of
// the device maps back to shard 0.
func twoShards(t *testing.T) (ShardConfig, int64) {
	t.Helper()
	newDevice := oneShardDevice(fault.Config{})
	dev, err := newDevice(0)
	if err != nil {
		t.Fatal(err)
	}
	logical := dev.LogicalPages()
	return ShardConfig{
		Shards: 2, Sharing: SharingEqual, TotalCapacityPages: 256,
		NewPolicy:        func(_, n int) cache.Policy { return cache.NewLRU(n) },
		NewDevice:        newDevice,
		TenantBoundaries: []int64{logical / 2, logical, logical + 1<<20},
	}, logical
}

// alternating returns n 4-page writes whose ordinals alternate between
// shard 0 (even) and shard 1 (odd) under twoShards' boundaries.
func alternating(n int, logical int64) []trace.Request {
	reqs := make([]trace.Request, n)
	half := logical / 2
	for i := range reqs {
		page := int64(i*4) % (half - 4)
		if i%2 == 1 {
			page += half
		}
		reqs[i] = req(int64(i)*10_000, true, page, 4)
	}
	return reqs
}

// shardHook is a shard observer that runs f at each of its shard's
// results.
type shardHook struct {
	NopObserver
	f func(ev *ResultEvent)
}

func (h shardHook) OnResult(_ *Engine, ev *ResultEvent) { h.f(ev) }

// parkShard1 makes shard 1's engine block at its first result until
// release is closed, and closes parked once it blocks.
func parkShard1(cfg *ShardConfig, parked, release chan struct{}) {
	var once sync.Once
	cfg.ShardObservers = func(k int, _ *Engine) []Observer {
		if k != 1 {
			return nil
		}
		return []Observer{shardHook{f: func(*ResultEvent) {
			once.Do(func() {
				close(parked)
				<-release
			})
		}}}
	}
}

// TestShardedShardErrorWhileOthersBacklogged routes a request beyond the
// device to shard 0 mid-stream, while shard 1 sits on a backlog: it is
// held at its first result until shard 0 has processed every request
// before the bad one. The run must return shard 0's error and leave no
// goroutine behind.
func TestShardedShardErrorWhileOthersBacklogged(t *testing.T) {
	leakcheck.Check(t)
	cfg, logical := twoShards(t)
	reqs := alternating(20_000, logical)
	const bad = 1000 // even: shard 0's 501st request
	reqs[bad] = req(reqs[bad].Time, true, logical, 4)

	release := make(chan struct{})
	var once sync.Once
	cfg.ShardObservers = func(k int, _ *Engine) []Observer {
		return []Observer{shardHook{f: func(ev *ResultEvent) {
			switch {
			case k == 0 && ev.Processed == bad/2:
				close(release)
			case k == 1:
				once.Do(func() { <-release })
			}
		}}}
	}
	eng, err := NewSharded((&trace.Trace{Name: "beyond", Requests: reqs}).Source(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run()
	if err == nil || !strings.HasPrefix(err.Error(), "sim: shard 0: ") || !strings.Contains(err.Error(), "beyond device") {
		t.Fatalf("Run() = %v, want sim: shard 0: ... beyond device", err)
	}
}

// TestShardedRareShardDoesNotStall routes one request in 5,000 to shard
// 1. Each of its records waits in a batch far from full when the merger
// reaches it, so the run completes only because a relay ships its records
// before its shard blocks waiting for input.
func TestShardedRareShardDoesNotStall(t *testing.T) {
	leakcheck.Check(t)
	cfg, logical := twoShards(t)
	reqs := alternating(40_000, logical)
	for i := range reqs {
		if i%5000 != 4999 {
			reqs[i] = req(reqs[i].Time, true, int64(i*4)%(logical/2-4), 4)
		}
	}
	eng, err := NewSharded((&trace.Trace{Name: "rare", Requests: reqs}).Source(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	done, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if done.Processed != len(reqs) {
		t.Fatalf("processed %d of %d requests", done.Processed, len(reqs))
	}
}

// TestShardedSourceErrorMidStream feeds a two-shard run an MSR stream
// with a malformed line in the middle: the run must return the parser's
// error.
func TestShardedSourceErrorMidStream(t *testing.T) {
	leakcheck.Check(t)
	cfg, logical := twoShards(t)
	var buf bytes.Buffer
	if err := trace.WriteMSR(&buf, &trace.Trace{Name: "mid", Requests: alternating(6000, logical)}); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	text := strings.Join(lines[:3000], "") + "not,an,msr,line\n" + strings.Join(lines[3000:], "")
	sc := trace.Scan(strings.NewReader(text), "mid")
	eng, err := NewSharded(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run()
	if err == nil || !errors.Is(err, sc.Err()) || !strings.Contains(err.Error(), "mid line 3001") {
		t.Fatalf("Run() = %v, want the scanner's error at line 3001 (%v)", err, sc.Err())
	}
}

// countingSource counts the requests pulled from it and flags the first
// pull that runs further than the routing window plus one read-ahead ring
// past the merged results. full closes once the pulls run a read-ahead
// batch past the window: the window is full and the read-ahead is
// filling its ring.
type countingSource struct {
	trace.Source
	pulled, merged atomic.Int64
	window         int64
	over           atomic.Value // string: the first overrun
	full           chan struct{}
	fullOnce       sync.Once
}

func (c *countingSource) Next() (trace.Request, bool) {
	r, ok := c.Source.Next()
	if ok {
		pulled, merged := c.pulled.Add(1), c.merged.Load()
		if pulled > merged+c.window+readAheadRing {
			c.over.CompareAndSwap(nil, fmt.Sprintf("pulled %d with %d merged", pulled, merged))
		}
		if pulled >= merged+c.window+readAheadRing/2 {
			c.fullOnce.Do(func() { close(c.full) })
		}
	}
	return r, ok
}

// TestShardedPullBoundWhileShardBlocks holds shard 1 at its first result
// and checks the source is pulled no further than the routing window plus
// one read-ahead ring past the merged count, before and after release.
func TestShardedPullBoundWhileShardBlocks(t *testing.T) {
	leakcheck.Check(t)
	cfg, logical := twoShards(t)
	src := &countingSource{
		Source: (&trace.Trace{Name: "bound", Requests: alternating(40_000, logical)}).Source(),
		window: int64(cfg.Shards * routeAhead),
		full:   make(chan struct{}),
	}
	parked, release := make(chan struct{}), make(chan struct{})
	parkShard1(&cfg, parked, release)
	eng, err := NewSharded(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Observe(resultFunc(func(*ResultEvent) { src.merged.Add(1) }))
	errc := make(chan error, 1)
	go func() {
		_, err := eng.Run()
		errc <- err
	}()
	select {
	case <-src.full:
	case <-time.After(20 * time.Second):
		close(release)
		t.Fatalf("source pulled %d with %d merged: the window never filled", src.pulled.Load(), src.merged.Load())
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if over := src.over.Load(); over != nil {
		t.Fatalf("routing ran past its window: %s (window %d, read-ahead ring %d)", over, src.window, readAheadRing)
	}
	if got := src.merged.Load(); got != 40_000 {
		t.Fatalf("merged %d results, want 40000", got)
	}
}

// TestShardedGoroutinesCarryProfileLabels parks a two-shard replay in
// shard 1's observer and reads a goroutine profile: the router, both
// shard engines and the read-ahead filler must each show their labels.
// A shard goroutine carries the router's labels until its own prof.Do
// runs, so the profile is read only once shard 0 has produced a result
// too.
func TestShardedGoroutinesCarryProfileLabels(t *testing.T) {
	leakcheck.Check(t)
	cfg, logical := twoShards(t)
	parked, release := make(chan struct{}), make(chan struct{})
	parkShard1(&cfg, parked, release)
	park, ran0 := cfg.ShardObservers, make(chan struct{})
	var once sync.Once
	cfg.ShardObservers = func(k int, e *Engine) []Observer {
		if k != 0 {
			return park(k, e)
		}
		return []Observer{shardHook{f: func(*ResultEvent) { once.Do(func() { close(ran0) }) }}}
	}
	eng, err := NewSharded((&trace.Trace{Name: "labels", Requests: alternating(40_000, logical)}).Source(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := eng.Run()
		errc <- err
	}()
	<-parked
	<-ran0
	var buf bytes.Buffer
	err = pprof.Lookup("goroutine").WriteTo(&buf, 1)
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`# labels: {"layer":"router", "shard":"all"}`,
		`# labels: {"layer":"engine", "shard":"0"}`,
		`# labels: {"layer":"engine", "shard":"1"}`,
		`# labels: {"layer":"readahead", "shard":"all"}`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("goroutine profile lacks %s:\n%s", want, buf.String())
		}
	}
}
