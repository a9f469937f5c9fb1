package serve_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// testDevice builds the small fresh device every serve test shards over.
func testDevice(int) (*ssd.Device, error) { return testDeviceFilled(0) }

// agedTestDevice is testDevice preconditioned to half its logical space,
// so reads and rewrites of low LPNs find pages the fill placed.
func agedTestDevice(int) (*ssd.Device, error) { return testDeviceFilled(0.5) }

func testDeviceFilled(fraction float64) (*ssd.Device, error) {
	p := ssd.DefaultParams()
	p.Flash.BlocksPerPlane = 512
	p.Flash.PagesPerBlock = 16
	p.Precondition = fraction
	return ssd.New(p)
}

func lruPolicy(_, n int) cache.Policy { return cache.NewLRU(n) }

// waitFor polls until cond holds, failing the test after five seconds.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeBasicAndDrain pushes concurrent reads and writes from several
// clients through a two-shard server, then drains: every request must be
// served, the tallies must add up, and the graceful drain must destage
// the dirty buffer and leave no goroutines behind.
func TestServeBasicAndDrain(t *testing.T) {
	leakcheck.Check(t)
	srv, err := serve.New(serve.Config{
		Shards: 2, Sharing: sim.SharingEqual, TotalCapacityPages: 128,
		DefaultDeadlineNs: int64(time.Minute),
		NewPolicy:         lruPolicy, NewDevice: testDevice,
	})
	if err != nil {
		t.Fatal(err)
	}

	const clients, perClient = 4, 50
	var wg sync.WaitGroup
	var served atomic.Int64
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				op := serve.Op{Write: i%3 != 0, LPN: int64(g*4096 + i*4), Pages: 4}
				resp, err := srv.Submit(op)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if resp.Outcome != serve.OutcomeOK {
					t.Errorf("op %d/%d: outcome %v, want ok", g, i, resp.Outcome)
					return
				}
				if resp.SimLatencyNs <= 0 {
					t.Errorf("op %d/%d: sim latency %d, want > 0", g, i, resp.SimLatencyNs)
				}
				served.Add(1)
			}
		}(g)
	}
	wg.Wait()
	if got := served.Load(); got != clients*perClient {
		t.Fatalf("served %d, want %d", got, clients*perClient)
	}

	st := srv.Stats()
	if st.Accepted != clients*perClient {
		t.Fatalf("accepted %d, want %d", st.Accepted, clients*perClient)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after quiesce, want 0", st.QueueDepth)
	}

	// The idle shard workers carry their profile labels.
	var profile bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&profile, 1); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`{"layer":"serve", "shard":"0"}`, `{"layer":"serve", "shard":"1"}`} {
		if !strings.Contains(profile.String(), want) {
			t.Errorf("goroutine profile lacks labels %s", want)
		}
	}

	rep := srv.Drain()
	if rep.Degraded {
		t.Fatal("drain reports degraded on a healthy run")
	}
	if rep.DrainedPages == 0 {
		t.Fatal("drain destaged nothing despite a dirty buffer")
	}
	// LRU's idle evictor stops at half capacity; whatever it kept must be
	// accounted, not silently dropped.
	if rep.RemainingDirtyPages < 0 {
		t.Fatalf("negative remaining dirty pages %d", rep.RemainingDirtyPages)
	}

	// Intake is closed: post-drain submissions report draining, and the
	// health source agrees.
	resp, err := srv.Submit(serve.Op{Write: true, LPN: 0, Pages: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != serve.OutcomeDraining {
		t.Fatalf("post-drain outcome %v, want draining", resp.Outcome)
	}
	if status, serving, _ := srv.HealthStatus(); status != serve.StateDraining || serving {
		t.Fatalf("post-drain health %q serving=%v, want draining/false", status, serving)
	}
	if srv.Drain() != rep {
		t.Fatal("second Drain returned a different report")
	}
}

// TestServeShedsWhenWindowExhausted pins ladder rung 1: once the DRAM
// window is full, writes go around the cache to flash instead of waiting,
// and reads keep flowing through the engine.
func TestServeShedsWhenWindowExhausted(t *testing.T) {
	leakcheck.Check(t)
	srv, err := serve.New(serve.Config{
		Shards: 1, Sharing: sim.SharingEqual, TotalCapacityPages: 16,
		WriteWindowPages: 16, Shed: true, DefaultDeadlineNs: int64(time.Minute),
		NewPolicy: lruPolicy, NewDevice: testDevice,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var ok, shed int
	for i := 0; i < 40; i++ {
		resp, err := srv.Submit(serve.Op{Write: true, LPN: int64(i * 4), Pages: 4})
		if err != nil {
			t.Fatal(err)
		}
		switch resp.Outcome {
		case serve.OutcomeOK:
			ok++
		case serve.OutcomeShed:
			shed++
			if resp.SimLatencyNs <= 0 {
				t.Fatalf("shed write %d: sim latency %d, want > 0", i, resp.SimLatencyNs)
			}
		default:
			t.Fatalf("write %d: outcome %v", i, resp.Outcome)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("ok=%d shed=%d: want both rungs exercised", ok, shed)
	}
	// With shedding enabled and the window exhausted, health reports the
	// rung the server actually executes.
	if status, serving, _ := srv.HealthStatus(); status != serve.StateShedding || !serving {
		t.Fatalf("health %q serving=%v with window exhausted, want shedding/true", status, serving)
	}
	// The cache is full, so the window stays exhausted: reads must still
	// be admitted (they bypass the window).
	resp, err := srv.Submit(serve.Op{LPN: 0, Pages: 4})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != serve.OutcomeOK {
		t.Fatalf("read under write shed: outcome %v, want ok", resp.Outcome)
	}
	st := srv.Stats()
	if st.Shed != int64(shed) || st.ShedPages != int64(shed*4) {
		t.Fatalf("stats shed=%d shedPages=%d, want %d/%d", st.Shed, st.ShedPages, shed, shed*4)
	}
}

// TestServeRejectsWhenQueueFull pins ladder rung 2: with the worker
// blocked mid-request and the admission queue full, the next submission
// is turned away immediately with a positive backoff hint.
func TestServeRejectsWhenQueueFull(t *testing.T) {
	leakcheck.Check(t)
	gate := newGatePolicy(cache.NewLRU(64))
	srv, err := serve.New(serve.Config{
		Shards: 1, Sharing: sim.SharingEqual, TotalCapacityPages: 64,
		QueueDepth: 2, WriteWindowPages: 1024, DefaultDeadlineNs: int64(time.Minute),
		NewPolicy: func(_, _ int) cache.Policy { return gate },
		NewDevice: testDevice,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	submit := func(lpn int64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.Submit(serve.Op{Write: true, LPN: lpn, Pages: 1}); err != nil {
				t.Errorf("submit: %v", err)
			}
		}()
	}
	submit(0) // dequeued by the worker, parked inside Access
	<-gate.entered
	submit(8)  // fills queue slot 1
	submit(16) // fills queue slot 2
	waitFor(t, func() bool { return srv.Stats().QueueDepth == 2 }, "queue never filled")

	resp, err := srv.Submit(serve.Op{Write: true, LPN: 24, Pages: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != serve.OutcomeRejected {
		t.Fatalf("outcome %v, want rejected", resp.Outcome)
	}
	if resp.RetryAfterNs <= 0 {
		t.Fatalf("retry hint %d, want > 0", resp.RetryAfterNs)
	}
	if status, serving, depth := srv.HealthStatus(); status != serve.StateRejecting || serving || depth != 2 {
		t.Fatalf("health %q serving=%v depth=%d, want rejecting/false/2", status, serving, depth)
	}

	gate.open() // let the parked request and the queue drain
	wg.Wait()
	st := srv.Stats()
	if st.Rejected != 1 || st.Accepted != 3 {
		t.Fatalf("rejected=%d accepted=%d, want 1/3", st.Rejected, st.Accepted)
	}
}

// TestServeValidation pins the front-door input contract and the
// admission-parameter rejections. Topology rules live in sim's
// TestBuildShardsValidation; the first row here, a policy constructor
// that returns nil, shows the builder's errors reach New's caller.
func TestServeValidation(t *testing.T) {
	leakcheck.Check(t)
	valid := func() serve.Config {
		return serve.Config{Shards: 1, TotalCapacityPages: 8, NewPolicy: lruPolicy, NewDevice: testDevice}
	}
	bad := []func(*serve.Config){
		func(c *serve.Config) { c.NewPolicy = func(int, int) cache.Policy { return nil } },
		func(c *serve.Config) { c.QueueDepth = -1 },
		func(c *serve.Config) { c.WriteWindowPages = -1 },
		func(c *serve.Config) { c.DefaultDeadlineNs = -1 },
		func(c *serve.Config) { c.MaxWaitNs = -1 },
	}
	for i, mutate := range bad {
		cfg := valid()
		mutate(&cfg)
		if _, err := serve.New(cfg); err == nil {
			t.Errorf("config %d: accepted, want error", i)
		}
	}

	srv, err := serve.New(serve.Config{
		Shards: 1, Sharing: sim.SharingEqual, TotalCapacityPages: 16,
		NewPolicy: lruPolicy, NewDevice: testDevice,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Submit(serve.Op{Pages: 0}); err == nil {
		t.Error("zero-page op accepted")
	}
	if _, err := srv.Submit(serve.Op{LPN: -1, Pages: 1}); err == nil {
		t.Error("negative LPN accepted")
	}
	if _, err := srv.Submit(serve.Op{LPN: 1 << 60, Pages: 1}); err == nil {
		t.Error("out-of-space LPN accepted")
	}
	// Pages near MaxInt64 used to wrap LPN+Pages negative and slip past
	// the bounds check, permanently wedging the caller on a request the
	// engine silently dropped (remotely triggerable goroutine leak).
	if _, err := srv.Submit(serve.Op{LPN: 1, Pages: math.MaxInt}); err == nil {
		t.Error("overflowing read page count accepted")
	}
	if _, err := srv.Submit(serve.Op{Write: true, LPN: 1, Pages: math.MaxInt}); err == nil {
		t.Error("overflowing write page count accepted")
	}
	if _, err := srv.Submit(serve.Op{Write: true, LPN: 0, Pages: 1 << 20}); err == nil {
		t.Error("window-exceeding write accepted with shedding off")
	}
}

// TestServeQueueingStateWithoutShed pins the health report for a full
// write window with shedding disabled: the server blocks writes in the
// window wait (rung-0 queueing), so /healthz must say queueing, not
// claim a shedding rung it never executes.
func TestServeQueueingStateWithoutShed(t *testing.T) {
	leakcheck.Check(t)
	srv, err := serve.New(serve.Config{
		Shards: 1, Sharing: sim.SharingEqual, TotalCapacityPages: 16,
		WriteWindowPages: 16, DefaultDeadlineNs: int64(time.Minute),
		NewPolicy: lruPolicy, NewDevice: testDevice,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for i := 0; i < 4; i++ {
		resp, err := srv.Submit(serve.Op{Write: true, LPN: int64(i * 4), Pages: 4})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Outcome != serve.OutcomeOK {
			t.Fatalf("write %d: outcome %v, want ok", i, resp.Outcome)
		}
	}
	st := srv.Stats()
	if st.Shards[0].CachedPages < st.Shards[0].WindowPages {
		t.Fatalf("cached %d pages below window %d: window not exhausted",
			st.Shards[0].CachedPages, st.Shards[0].WindowPages)
	}
	if status, serving, _ := srv.HealthStatus(); status != serve.StateQueueing || !serving {
		t.Fatalf("health %q serving=%v with window full and shed off, want queueing/true",
			status, serving)
	}
}

// gatePolicy wraps a policy so tests can park the shard worker inside
// Access: entered signals each arrival, and the worker proceeds only
// when the gate channel delivers. open() unblocks everything for good.
type gatePolicy struct {
	cache.Policy
	mu      sync.Mutex
	closed  bool
	entered chan struct{}
	gate    chan struct{}
}

func newGatePolicy(p cache.Policy) *gatePolicy {
	return &gatePolicy{Policy: p, entered: make(chan struct{}, 64), gate: make(chan struct{})}
}

func (g *gatePolicy) Access(r cache.Request) cache.Result {
	g.mu.Lock()
	closed := g.closed
	g.mu.Unlock()
	if !closed {
		g.entered <- struct{}{}
		<-g.gate
	}
	return g.Policy.Access(r)
}

// open releases the current and all future Access calls.
func (g *gatePolicy) open() {
	g.mu.Lock()
	if !g.closed {
		g.closed = true
		close(g.gate)
	}
	g.mu.Unlock()
}

// gcBudgetServer serves two shards of nearly full devices built without
// the GC scheduler, with a GC budget that fits one full collection per
// slice, and submits 2,000 writes 40 ms apart on a fake clock.
func gcBudgetServer(t *testing.T, tel *obs.Telemetry) *serve.Server {
	t.Helper()
	clock := &fakeClock{}
	srv, err := serve.New(serve.Config{
		Shards: 2, Sharing: sim.SharingShared, TotalCapacityPages: 256,
		DefaultDeadlineNs: int64(time.Hour),
		// One full collection (copies plus the 15 ms erase) fits a slice.
		GCBudgetNs: 30_000_000,
		NewPolicy:  lruPolicy,
		NewDevice: func(int) (*ssd.Device, error) {
			p := ssd.DefaultParams()
			p.Flash.BlocksPerPlane = 512
			p.Flash.PagesPerBlock = 16
			p.Precondition = 0.9
			return ssd.New(p)
		},
		Now:       clock.Now,
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		clock.Advance(int64(40 * time.Millisecond))
		lpn := int64(i*7919) % 100_000
		if _, err := srv.Submit(serve.Op{Write: true, LPN: lpn, Pages: 4}); err != nil {
			srv.Close()
			t.Fatal(err)
		}
	}
	return srv
}

// TestServeGCBudgetPlainDevices pins that Config.GCBudgetNs alone turns on
// queue-empty GC: the devices are built without the scheduler, and the
// shard build must enable it so the budgeted slices collect victims on
// the nearly full devices.
func TestServeGCBudgetPlainDevices(t *testing.T) {
	leakcheck.Check(t)
	srv := gcBudgetServer(t, nil)
	defer srv.Close()
	st := srv.Stats()
	t.Logf("gc slices %d, victims %d", st.GCSlices, st.GCVictims)
	if st.GCSlices == 0 || st.GCVictims == 0 {
		t.Fatalf("GC budget over plain devices: %d slices, %d victims, want both > 0",
			st.GCSlices, st.GCVictims)
	}
}

// TestServeGCCountersOnMetrics: the GC slices and victims Stats reports
// are the ssdserve_gc_* counters /metrics serves. An idle shard grants a
// slice after its last response, so both are read after the drain.
func TestServeGCCountersOnMetrics(t *testing.T) {
	leakcheck.Check(t)
	tel := obs.New()
	srv := gcBudgetServer(t, tel)
	srv.Drain()
	ts := httptest.NewServer(srv.HTTPHandler(tel.Handler()))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.GCSlices == 0 || st.GCVictims == 0 {
		t.Fatalf("%d GC slices, %d victims, want both > 0", st.GCSlices, st.GCVictims)
	}
	for _, want := range []string{
		fmt.Sprintf("ssdserve_gc_slices_total %d\n", st.GCSlices),
		fmt.Sprintf("ssdserve_gc_victims_total %d\n", st.GCVictims),
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}
