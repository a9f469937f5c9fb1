package serve_test

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
)

// fakeClock is the injectable server clock: time moves only when the
// test says so, which makes deadline expiry fully deterministic.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) Now() int64      { return c.ns.Load() }
func (c *fakeClock) Advance(d int64) { c.ns.Add(d) }

// TestDeadlineExpiresWhileQueued parks the worker inside a request so a
// second request's deadline dies in the admission queue: the expiry must
// be charged to the queued phase — counter and histogram — and the
// request must never reach the engine.
func TestDeadlineExpiresWhileQueued(t *testing.T) {
	leakcheck.Check(t)
	clock := &fakeClock{}
	gate := newGatePolicy(cache.NewLRU(64))
	tel := obs.New()
	srv, err := serve.New(serve.Config{
		Shards: 1, Sharing: sim.SharingEqual, TotalCapacityPages: 64,
		WriteWindowPages: 1024, DefaultDeadlineNs: int64(time.Hour),
		NewPolicy: func(_, _ int) cache.Policy { return gate },
		NewDevice: testDevice,
		Telemetry: tel, Now: clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	respA := make(chan serve.Response, 1)
	go func() {
		r, _ := srv.Submit(serve.Op{Write: true, LPN: 0, Pages: 1})
		respA <- r
	}()
	<-gate.entered // A is in service, holding the worker

	respB := make(chan serve.Response, 1)
	go func() {
		r, _ := srv.Submit(serve.Op{Write: true, LPN: 8, Pages: 1, DeadlineNs: 1000})
		respB <- r
	}()
	waitFor(t, func() bool { return srv.Stats().QueueDepth == 1 }, "B never queued")

	clock.Advance(2000) // B's deadline dies while it sits in the queue
	gate.open()         // A completes; the worker dequeues B expired

	a, b := <-respA, <-respB
	if a.Outcome != serve.OutcomeOK {
		t.Fatalf("A outcome %v, want ok", a.Outcome)
	}
	if b.Outcome != serve.OutcomeTimeout || b.Phase != serve.PhaseQueued {
		t.Fatalf("B outcome %v phase %q, want timeout/queued", b.Outcome, b.Phase)
	}
	if b.QueueNs < 2000 {
		t.Fatalf("B queue wait %d, want >= 2000", b.QueueNs)
	}
	st := srv.Stats()
	if st.TimeoutsQueued != 1 || st.TimeoutsService != 0 {
		t.Fatalf("timeouts queued=%d service=%d, want 1/0", st.TimeoutsQueued, st.TimeoutsService)
	}
	assertMetric(t, tel, "ssdserve_timeouts_queued_total 1")
	assertMetric(t, tel, "ssdserve_timeouts_service_total 0")
}

// TestDeadlineExpiresInService parks the worker mid-request — the
// analogue of a long destage stall inside the engine — and lets the
// deadline die there: the expiry must be charged to the service phase
// and the stall must land in the service histogram.
func TestDeadlineExpiresInService(t *testing.T) {
	leakcheck.Check(t)
	clock := &fakeClock{}
	gate := newGatePolicy(cache.NewLRU(64))
	tel := obs.New()
	srv, err := serve.New(serve.Config{
		Shards: 1, Sharing: sim.SharingEqual, TotalCapacityPages: 64,
		WriteWindowPages: 1024, DefaultDeadlineNs: int64(time.Hour),
		NewPolicy: func(_, _ int) cache.Policy { return gate },
		NewDevice: testDevice,
		Telemetry: tel, Now: clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	respC := make(chan serve.Response, 1)
	go func() {
		r, _ := srv.Submit(serve.Op{Write: true, LPN: 0, Pages: 1, DeadlineNs: 1000})
		respC <- r
	}()
	<-gate.entered      // C is in service (stalled in the cache/destage step)
	clock.Advance(2000) // its deadline dies during the stall
	gate.open()

	c := <-respC
	if c.Outcome != serve.OutcomeTimeout || c.Phase != serve.PhaseService {
		t.Fatalf("C outcome %v phase %q, want timeout/service", c.Outcome, c.Phase)
	}
	if c.ServiceNs < 2000 {
		t.Fatalf("C service time %d, want >= 2000 (the stall)", c.ServiceNs)
	}
	st := srv.Stats()
	if st.TimeoutsService != 1 || st.TimeoutsQueued != 0 {
		t.Fatalf("timeouts queued=%d service=%d, want 0/1", st.TimeoutsQueued, st.TimeoutsService)
	}
	assertMetric(t, tel, "ssdserve_timeouts_service_total 1")
	assertMetric(t, tel, "ssdserve_timeouts_queued_total 0")
}

// TestDeadlineExpiresInWindowWait exhausts the DRAM window with shedding
// off, so a write blocks in the free-slot wait (MQSim's DRAM wait queue)
// and its deadline dies there: a queued-phase timeout, detected on the
// next wake-up.
func TestDeadlineExpiresInWindowWait(t *testing.T) {
	leakcheck.Check(t)
	clock := &fakeClock{}
	srv, err := serve.New(serve.Config{
		Shards: 1, Sharing: sim.SharingEqual, TotalCapacityPages: 8,
		WriteWindowPages: 4, DefaultDeadlineNs: int64(time.Hour),
		NewPolicy: lruPolicy, NewDevice: testDevice,
		Now: clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Fill the window: after this write completes, 4 pages sit cached.
	if r, err := srv.Submit(serve.Op{Write: true, LPN: 0, Pages: 4}); err != nil || r.Outcome != serve.OutcomeOK {
		t.Fatalf("fill write: %v/%v", r.Outcome, err)
	}

	respB := make(chan serve.Response, 1)
	go func() {
		r, _ := srv.Submit(serve.Op{Write: true, LPN: 8, Pages: 4, DeadlineNs: 1000})
		respB <- r
	}()
	waitFor(t, func() bool { return srv.Stats().WindowWaits == 1 }, "B never hit the window wait")

	clock.Advance(2000)
	// A read completion is the wake-up that makes B re-check its clock
	// (the fake clock cannot fire timers).
	if r, err := srv.Submit(serve.Op{LPN: 0, Pages: 1}); err != nil || r.Outcome != serve.OutcomeOK {
		t.Fatalf("wake-up read: %v/%v", r.Outcome, err)
	}

	b := <-respB
	if b.Outcome != serve.OutcomeTimeout || b.Phase != serve.PhaseQueued {
		t.Fatalf("B outcome %v phase %q, want timeout/queued", b.Outcome, b.Phase)
	}
	if st := srv.Stats(); st.TimeoutsQueued != 1 {
		t.Fatalf("timeouts queued=%d, want 1", st.TimeoutsQueued)
	}
}

// assertMetric renders the telemetry catalog and requires an exact
// exposition line, anchoring the obs wiring of the serve instruments.
func assertMetric(t *testing.T, tel *obs.Telemetry, line string) {
	t.Helper()
	var sb strings.Builder
	if err := tel.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, l := range strings.Split(sb.String(), "\n") {
		if l == line {
			return
		}
	}
	t.Fatalf("metric line %q not found in exposition", line)
}

// TestDeadlineMissDumpsFlightRecorder pins the anomaly plumbing: the
// first deadline expiry must record a deadline_miss in the flight
// recorder and write a dump file named for the phase that missed.
func TestDeadlineMissDumpsFlightRecorder(t *testing.T) {
	leakcheck.Check(t)
	clock := &fakeClock{}
	gate := newGatePolicy(cache.NewLRU(64))
	dir := t.TempDir()
	fr := obs.NewFlightRecorder(1, 64, dir)
	srv, err := serve.New(serve.Config{
		Shards: 1, Sharing: sim.SharingEqual, TotalCapacityPages: 64,
		WriteWindowPages: 1024, DefaultDeadlineNs: int64(time.Hour),
		NewPolicy: func(_, _ int) cache.Policy { return gate },
		NewDevice: testDevice,
		Now:       clock.Now, FlightRecorder: fr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	respA := make(chan serve.Response, 1)
	go func() {
		r, _ := srv.Submit(serve.Op{Write: true, LPN: 0, Pages: 1})
		respA <- r
	}()
	<-gate.entered

	respB := make(chan serve.Response, 1)
	go func() {
		r, _ := srv.Submit(serve.Op{Write: true, LPN: 8, Pages: 1, DeadlineNs: 1000})
		respB <- r
	}()
	waitFor(t, func() bool { return srv.Stats().QueueDepth == 1 }, "B never queued")
	clock.Advance(2000)
	gate.open()
	<-respA
	if b := <-respB; b.Outcome != serve.OutcomeTimeout {
		t.Fatalf("B outcome %v, want timeout", b.Outcome)
	}

	var miss *obs.FlightRecord
	for _, r := range fr.Snapshot() {
		if r.Kind == obs.FlightDeadlineMiss {
			rc := r
			miss = &rc
			break
		}
	}
	if miss == nil {
		t.Fatal("no deadline_miss record in the flight recorder")
	}
	if miss.B < 1000 { // overrun ns: the clock advanced 2000 past a 1000ns deadline
		t.Fatalf("deadline_miss overrun = %d, want >= 1000", miss.B)
	}
	if fr.DumpCount() == 0 {
		t.Fatal("deadline miss did not trigger a dump")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, e := range ents {
		if strings.Contains(e.Name(), "deadline-queued") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no deadline-queued dump among %v", ents)
	}
}

// TestFarDeadlineNeverExpires reads over HTTP from a server on the real
// clock with deadline_ns at math.MaxInt64. The deadline saturates instead
// of wrapping past the clock, so the read is served: 200, not a timeout.
func TestFarDeadlineNeverExpires(t *testing.T) {
	leakcheck.Check(t)
	srv, err := serve.New(serve.Config{
		Shards: 1, TotalCapacityPages: 64, NewPolicy: lruPolicy, NewDevice: testDevice,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.HTTPHandler(nil))
	defer ts.Close()
	time.Sleep(time.Millisecond) // the clock has left zero, where the sum cannot wrap
	resp, err := ts.Client().Get(ts.URL + "/v1/read?lpn=3&pages=1&deadline_ns=9223372036854775807")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read with deadline_ns=MaxInt64: status %d, want 200", resp.StatusCode)
	}
}
