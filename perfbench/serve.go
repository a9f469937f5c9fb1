package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// serve-http: the ssdserve stack (serve.New configured as cmd/ssdserve
// configures it, with pacing off) on a loopback port in this process,
// driven over at most nproc keep-alive connections by the benchmark's own
// client. Ops are 4 pages, 70% reads, spread over four times the cache.
// An open-loop phase sends bursty trains of 32 ops every 8 ms (4k ops/s,
// about a sixth of the reference host's capacity, so a burst of CPU
// steal does not tip it into a growing backlog) and times each op from
// when it was due; a closed-loop phase with one client per connection
// measures capacity.

const (
	serveShards   = 2
	serveCacheMB  = 16
	opPages       = 4
	readShare     = 0.7
	trainOps      = 32
	trainGap      = 8 * time.Millisecond
	serveWarmup   = time.Second
	setupOnlyRuns = 3 // extra set-ups timed for setup_s, beyond the phases' servers
	// opBase and opSpanPages place the ops on pages [4096, 4096+16384):
	// four times the 4096-page cache, over the four 4096-page hash
	// regions that the default routing splits two and two.
	opBase      = 4096
	opSpanPages = 4 * serveCacheMB * 256
)

// server is one ssdserve instance under test.
type server struct {
	srv  *serve.Server
	ln   *obs.Server
	base string
	devs []*ssd.Device
	rbs  []*core.ReqBlock
	prb  *probe // traced servers only
	// setup is the set-up time, and setupGiven the share of the CPU
	// time asked for during it that the VM was given.
	setup      time.Duration
	setupGiven float64
}

// newServer builds the service as cmd/ssdserve does — Req-block, two
// shards sharing 16 MiB, ScaledParams(16) devices with telemetry taps, the
// HTTP API in front of the telemetry handler — and starts its listener.
func newServer(traced bool) (*server, error) {
	s := &server{}
	if traced {
		s.prb = newProbe(nil, serveShards)
		for _, sp := range s.prb.shards {
			sp.selfSample = true
		}
	}
	settleHeap()
	c0, t0 := ticksNow(), time.Now()
	params := ssd.ScaledParams(16)
	tel := obs.New()
	srv, err := serve.New(serve.Config{
		Shards:             serveShards,
		Sharing:            sim.SharingShared,
		TotalCapacityPages: serveCacheMB * 256,
		NewPolicy: func(k, capPages int) cache.Policy {
			rb := core.New(capPages)
			s.rbs = append(s.rbs, rb)
			if s.prb != nil {
				return wrapPolicy(&timedReqBlock{ReqBlock: rb, sp: s.prb.shards[k]})
			}
			return wrapPolicy(rb)
		},
		NewDevice: func(int) (*ssd.Device, error) {
			d, err := ssd.New(params)
			if err != nil {
				return nil, err
			}
			if tap := obs.MultiTap(tel); tap != nil {
				d.SetTap(tap)
			}
			s.devs = append(s.devs, d)
			return d, nil
		},
		QueueDepth:        256,
		DefaultDeadlineNs: int64(2 * time.Second),
		Pace:              false,
		Telemetry:         tel,
	})
	if err != nil {
		return nil, err
	}
	ln, err := obs.Serve("127.0.0.1:0", srv.HTTPHandler(tel.Handler()))
	if err != nil {
		srv.Drain()
		return nil, err
	}
	s.srv, s.ln, s.base = srv, ln, "http://"+ln.Addr()
	s.setup, s.setupGiven = time.Since(t0), given(c0, ticksNow())
	return s, nil
}

// stop drains the service, closes the listener and checks the final
// state: a clean drain, no engine failures, and intact devices and
// Req-block structures. The workers have exited once Drain returns.
func (s *server) stop(g *gate, what string) serve.Stats {
	rep := s.srv.Drain()
	_ = s.ln.Close() // the drained service has nothing left to answer
	st := s.srv.Stats()
	g.check(!rep.Degraded, "%s: drain reports a degraded device", what)
	g.check(st.Errors == 0, "%s: %d engine errors", what, st.Errors)
	for _, sh := range st.Shards {
		g.check(!sh.Failed, "%s: shard %d engine failed", what, sh.Shard)
	}
	for k, d := range s.devs {
		g.noErr(d.CheckInvariants(), fmt.Sprintf("%s shard %d device invariants", what, k))
	}
	for k, rb := range s.rbs {
		g.noErr(rb.CheckInvariants(), fmt.Sprintf("%s shard %d Req-block invariants", what, k))
	}
	return st
}

// client drives one server over at most conns keep-alive connections.
type client struct {
	cl    *serve.Client
	tr    *http.Transport
	dials atomic.Int64
	conns int
}

func newClient(base string, conns int) *client {
	c := &client{conns: conns}
	var d net.Dialer
	c.tr = &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}
	c.cl = &serve.Client{Base: base, HTTP: &http.Client{Transport: c.tr}}
	return c
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// op is one generated request.
type op struct {
	write bool
	lpn   int64
}

func genOp(rng *rand.Rand) op {
	return op{write: rng.Float64() >= readShare, lpn: opBase + opPages*rng.Int63n(opSpanPages/opPages)}
}

// opRec is one sent op's outcome, times in ns since the phase start.
type opRec struct {
	due, start, done int64
	resp             serve.Response
	transportErr     bool
	sent             bool
	worker           int
}

// tally counts ops by how they ended.
type tally struct {
	attempted, ok, shed, rejected, timeout, readOnly, draining, errs, transport, skipped int64
}

func (t *tally) add(r *opRec) {
	t.attempted++
	switch {
	case !r.sent:
		t.skipped++
	case r.transportErr:
		t.transport++
	default:
		switch r.resp.Outcome {
		case serve.OutcomeOK:
			t.ok++
		case serve.OutcomeShed:
			t.shed++
		case serve.OutcomeRejected:
			t.rejected++
		case serve.OutcomeTimeout:
			t.timeout++
		case serve.OutcomeReadOnly:
			t.readOnly++
		case serve.OutcomeDraining:
			t.draining++
		default:
			t.errs++
		}
	}
}

// failed counts ops that did not end OK or shed.
func (t *tally) failed() int64 { return t.attempted - t.ok - t.shed }

// ok reports whether the op ended OK or shed.
func (r *opRec) ok() bool {
	return r.sent && !r.transportErr && (r.resp.Outcome == serve.OutcomeOK || r.resp.Outcome == serve.OutcomeShed)
}

// checkTally is the serve-side correctness gate: every op has exactly
// one outcome, no transport errors or engine errors, and the server's own
// outcome tallies agree with what the client saw.
func checkTally(g *gate, what string, t tally, st *serve.Stats) {
	sum := t.ok + t.shed + t.rejected + t.timeout + t.readOnly + t.draining + t.errs + t.transport + t.skipped
	g.check(sum == t.attempted, "%s: %d ops attempted but %d outcomes", what, t.attempted, sum)
	g.check(t.transport == 0, "%s: %d transport errors", what, t.transport)
	g.check(t.errs == 0, "%s: %d ops answered with an error outcome", what, t.errs)
	if st != nil {
		g.check(st.Accepted == t.ok && st.Shed == t.shed && st.Rejected == t.rejected &&
			st.TimeoutsQueued+st.TimeoutsService == t.timeout,
			"%s: server tallies (accepted %d, shed %d, rejected %d, timeouts %d) disagree with the client (%d, %d, %d, %d)",
			what, st.Accepted, st.Shed, st.Rejected, st.TimeoutsQueued+st.TimeoutsService, t.ok, t.shed, t.rejected, t.timeout)
	}
}

// openLoop sends trains of trainOps ops every trainGap for warm+measure,
// each op due at its train's start. The dispatcher sleeps once per
// train, never per op: it sleeps to just before the due time (learning
// the timer's wake-up overshoot) and spins the rest, so its lateness is
// small and reported apart from the queueing behind busy connections,
// which counts as latency. Ops that find the hand-off queue full are
// skipped (and fail). Returns every op's record and each train's
// dispatch lateness.
func openLoop(c *client, seed int64, warm, measure time.Duration, onSent func(seq int64, r *opRec)) (recs []opRec, late []float64, warmTrains int) {
	trains := int((warm + measure) / trainGap)
	warmTrains = int(warm / trainGap)
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, trains*trainOps)
	for i := range ops {
		ops[i] = genOp(rng)
	}
	recs = make([]opRec, len(ops))
	// The hand-off holds a second of arrivals: a host stall shows up as
	// latency, and only a generator that falls a second behind skips.
	queue := make(chan int, int(time.Second/trainGap)*trainOps)
	base := time.Now()
	now := func() int64 { return int64(time.Since(base)) }

	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := &recs[i]
				o := ops[i]
				r.start = now()
				resp, err := c.cl.Submit(serve.Op{Write: o.write, LPN: o.lpn, Pages: opPages})
				r.done = now()
				r.resp, r.transportErr, r.sent, r.worker = resp, err != nil, true, w
				if onSent != nil {
					onSent(int64(i), r)
				}
			}
		}()
	}

	overshoot := int64(time.Millisecond) // learned timer wake-up lateness
	late = make([]float64, 0, trains)
	for t := 0; t < trains; t++ {
		due := int64(t) * int64(trainGap)
		if wait := due - now() - overshoot; wait > 0 {
			before := now()
			time.Sleep(time.Duration(wait))
			over := now() - before - wait
			overshoot += (over - overshoot) / 8
		}
		for now() < due {
			runtime.Gosched()
		}
		late = append(late, float64(now()-due)/1e6)
		for i := t * trainOps; i < (t+1)*trainOps; i++ {
			recs[i].due = due
			select {
			case queue <- i:
			default: // backlog full: the arrival is skipped
			}
		}
	}
	close(queue)
	wg.Wait()
	return recs, late, warmTrains
}

// closedLoop runs one client per connection, each sending its next op as
// soon as the previous one returns, for warm+measure, and fills res with
// what the measured window saw. It returns, per one-second window, the
// ops completed, their median latency (a failed op misses every limit)
// and the share of the CPU time asked for that the VM was given.
func closedLoop(c *client, seed int64, warm, measure time.Duration, res *closedResult) (counts, p50s, givens []float64) {
	windows := int(measure / time.Second)
	lats := make([][]float64, windows)
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := time.Now()
	warmEnd, end := start.Add(warm), start.Add(warm+measure)
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(w)))
			var local tally
			perWindow := make([][]float64, windows)
			for t0 := time.Now(); t0.Before(end); {
				o := genOp(rng)
				resp, err := c.cl.Submit(serve.Op{Write: o.write, LPN: o.lpn, Pages: opPages})
				t1 := time.Now()
				r := opRec{resp: resp, transportErr: err != nil, sent: true}
				local.add(&r)
				if el := t1.Sub(warmEnd); el >= 0 && int(el/time.Second) < windows {
					lat := missedLimit
					if r.ok() {
						lat = float64(t1.Sub(t0)) / 1e6
					}
					perWindow[el/time.Second] = append(perWindow[el/time.Second], lat)
				}
				t0 = t1
			}
			mu.Lock()
			defer mu.Unlock()
			addTally(&res.tally, local)
			for k, l := range perWindow {
				lats[k] = append(lats[k], l...)
			}
		}()
	}
	time.Sleep(time.Until(warmEnd))
	cpu0, mark := cpuTime(), ticksNow()
	for k := 1; k <= windows; k++ {
		time.Sleep(time.Until(warmEnd.Add(time.Duration(k) * time.Second)))
		next := ticksNow()
		givens = append(givens, given(mark, next))
		mark = next
	}
	wg.Wait()
	cpu := cpuTime() - cpu0
	for _, l := range lats {
		counts = append(counts, float64(len(l)))
		p50s = append(p50s, median(l))
		res.ops += float64(len(l))
	}
	res.cpuPerOp = time.Duration(float64(cpu) / res.ops)
	return counts, p50s, givens
}

func addTally(t *tally, u tally) {
	t.attempted += u.attempted
	t.ok += u.ok
	t.shed += u.shed
	t.rejected += u.rejected
	t.timeout += u.timeout
	t.readOnly += u.readOnly
	t.draining += u.draining
	t.errs += u.errs
	t.transport += u.transport
	t.skipped += u.skipped
}

// openResult is what the open-loop phase measured.
type openResult struct {
	tally                         tally
	latP50, latP99                float64 // ms from due time
	lateP50, lateP99              float64 // dispatcher lateness, ms
	queueUs, serviceUs, httpUs    float64 // medians
	windowUsMean                  float64
	simUs                         []float64
	hits, misses                  int64
	flashWrites, flashReads, gcMg int64
	accessNs, accessN             int64 // traced: Req-block Access timing
	evictions, evictPages         int64
	spans                         []span
	srv                           *server // stopped; kept for its set-up figures
}

// openPhase runs the open loop on a fresh server: latency at a fixed
// offered load, plus the simulated and per-layer figures of the same ops.
func openPhase(cfg config, out *outcome, conns int, warm, measure time.Duration) (*openResult, error) {
	g := &out.gate
	s, err := newServer(cfg.trace)
	if err != nil {
		return nil, fmt.Errorf("serve-http set-up: %w", err)
	}
	res := &openResult{srv: s}
	c := newClient(s.base, conns)
	var spanMu sync.Mutex
	var onSent func(int64, *opRec)
	if cfg.trace {
		onSent = func(seq int64, r *opRec) {
			if kept(seq) && !r.transportErr {
				sp := submitSpans(seq, r)
				spanMu.Lock()
				res.spans = append(res.spans, sp...)
				spanMu.Unlock()
			}
		}
	}
	recs, late, warmTrains := openLoop(c, cfg.seed, warm, measure, onSent)
	c.close()
	st := s.stop(g, "serve-http open loop")
	for i := range recs {
		res.tally.add(&recs[i])
	}
	checkTally(g, "serve-http open loop", res.tally, &st)
	g.check(c.dials.Load() <= int64(conns), "serve-http guard: open loop used %d connections, nproc is %d", c.dials.Load(), conns)
	g.check(res.tally.skipped == 0, "serve-http guard: %d arrivals skipped (the generator fell a second behind)", res.tally.skipped)

	// Latency from due time; a failed op misses every limit. latP50 is
	// the median over one-second windows of each window's p50, so a
	// window the host's other tenants slowed moves it little.
	perWindow := int(time.Second/trainGap) * trainOps
	var all, window, queueUs, windowUs, serviceUs, httpUs, windowP50 []float64
	measured := recs[warmTrains*trainOps:]
	for i := range measured {
		r := &measured[i]
		ok := r.ok()
		lat := missedLimit
		if ok {
			lat = float64(r.done-r.due) / 1e6
			queueUs = append(queueUs, float64(r.resp.QueueNs)/1e3)
			windowUs = append(windowUs, float64(r.resp.WindowNs)/1e3)
			serviceUs = append(serviceUs, float64(r.resp.ServiceNs)/1e3)
			httpUs = append(httpUs, float64(r.done-r.start-r.resp.QueueNs-r.resp.ServiceNs)/1e3)
		}
		if ok && r.resp.Outcome == serve.OutcomeOK {
			res.simUs = append(res.simUs, float64(r.resp.SimLatencyNs)/1e3)
			res.hits += int64(r.resp.Hits)
			res.misses += int64(r.resp.Misses)
		}
		all = append(all, lat)
		window = append(window, lat)
		if len(window) == perWindow {
			windowP50 = append(windowP50, median(window))
			window = window[:0]
		}
	}
	if len(windowP50) == 0 { // a phase shorter than one window
		windowP50 = append(windowP50, median(window))
	}
	out.notes = append(out.notes, fmt.Sprintf("open loop: latency p50 per second, ms %.3f", windowP50))
	res.latP50 = median(windowP50)
	res.latP99 = quantile(all, 0.99)
	res.lateP50 = quantile(late[warmTrains:], 0.5)
	res.lateP99 = quantile(late[warmTrains:], 0.99)
	res.queueUs, res.serviceUs, res.httpUs = median(queueUs), median(serviceUs), median(httpUs)
	res.windowUsMean = mean(windowUs)
	g.check(res.lateP50*4 <= res.latP50, "serve-http guard: generator lateness p50 %.3f ms is not well below latency p50 %.3f ms", res.lateP50, res.latP50)
	for _, d := range s.devs {
		ct := d.Counters()
		res.flashWrites += ct.FlashWrites
		res.flashReads += ct.FlashReads
		res.gcMg += ct.GCMigrations
	}
	if s.prb != nil {
		for _, sp := range s.prb.shards {
			res.accessNs += sp.accessNs
			res.accessN += sp.accessN
			res.evictions += sp.evictions
			res.evictPages += sp.evictPages
		}
	}
	return res, nil
}

// closedResult is what one closed-loop phase measured.
type closedResult struct {
	// opsPerS and latP50 (ms) are medians over one-second windows;
	// opsPerSFree is opsPerS in steal-free time.
	opsPerS, opsPerSFree, latP50 float64
	ops                          float64 // ops in the measured window
	cpuPerOp                     time.Duration
	tally                        tally
	gc                           goCounters
	srv                          *server // stopped; kept for its set-up figures
}

// closedPhase runs the closed loop on a fresh server: capacity.
func closedPhase(cfg config, out *outcome, conns int, traced bool, seed int64, warm, measure time.Duration) (*closedResult, error) {
	g := &out.gate
	s, err := newServer(traced)
	if err != nil {
		return nil, fmt.Errorf("serve-http set-up: %w", err)
	}
	res := &closedResult{srv: s}
	c := newClient(s.base, conns)
	go0 := readGoCounters()
	counts, p50s, givens := closedLoop(c, seed, warm, measure, res)
	res.gc = readGoCounters().sub(go0)
	c.close()
	what := fmt.Sprintf("serve-http closed loop (traced=%v)", traced)
	st := s.stop(g, what)
	checkTally(g, what, res.tally, &st)
	g.check(c.dials.Load() <= int64(conns), "serve-http guard: closed loop used %d connections, nproc is %d", c.dials.Load(), conns)
	out.notes = append(out.notes, fmt.Sprintf("closed loop (traced=%v): ops per second %.0f, latency p50 per second, ms %.3f, CPU time given per second %.3f",
		traced, counts, p50s, givens))
	free := make([]float64, len(counts))
	for k := range counts {
		free[k] = counts[k] / givens[k]
	}
	res.opsPerS, res.opsPerSFree, res.latP50 = median(counts), median(free), median(p50s)
	return res, nil
}

// runServeHTTP drives the serve-http workload: the open loop, the closed
// loop (twice in a traced run: untraced, then traced), and extra set-ups
// so setup_s is a median of several.
func runServeHTTP(cfg config) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	g := &out.gate
	conns := runtime.NumCPU()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	warm := min(serveWarmup, budget/4)

	open, err := openPhase(cfg, out, conns, warm, budget/2)
	if err != nil {
		return nil, err
	}
	closedMeasure := budget / 2
	if cfg.trace {
		closedMeasure = budget / 4
	}
	closedMeasure = max(closedMeasure, time.Second) // at least one window
	plain, err := closedPhase(cfg, out, conns, false, cfg.seed+1, warm, closedMeasure)
	if err != nil {
		return nil, err
	}
	servers := []*server{open.srv, plain.srv}
	var traced *closedResult
	if cfg.trace {
		if traced, err = closedPhase(cfg, out, conns, true, cfg.seed+2, warm, closedMeasure); err != nil {
			return nil, err
		}
		servers = append(servers, traced.srv)
	}
	for i := 0; i < setupOnlyRuns; i++ {
		s, err := newServer(false)
		if err != nil {
			return nil, fmt.Errorf("serve-http set-up: %w", err)
		}
		servers = append(servers, s)
		s.stop(g, "serve-http set-up only")
	}
	var setupWalls, setupsFree []float64
	for _, s := range servers {
		setupWalls = append(setupWalls, seconds(s.setup))
		setupsFree = append(setupsFree, seconds(s.setup)*s.setupGiven)
	}
	for _, t := range []tally{open.tally, plain.tally} {
		out.attempted += t.attempted
		out.failed += t.failed()
	}
	if traced != nil {
		out.attempted += traced.tally.attempted
		out.failed += traced.tally.failed()
	}

	mt := out.metrics
	if !cfg.trace {
		rss, err := maxRSSMiB()
		if err != nil {
			return nil, err
		}
		out.notes = append(out.notes, fmt.Sprintf("wall-clock medians: %.0f ops/s, set-up %.4f s", plain.opsPerS, median(setupWalls)))
		mt["throughput_req_per_s"] = plain.opsPerSFree
		mt["cpu_us_per_req"] = float64(plain.cpuPerOp) / 1e3
		mt["lat_p50_ms"] = plain.latP50
		mt["setup_s"] = median(setupsFree)
		mt["max_rss_mb"] = rss
		mt["sim_resp_mean_us"] = mean(open.simUs)
		mt["sim_resp_p99_us"] = quantile(open.simUs, 0.99)
		mt["hit_ratio"] = ratio(float64(open.hits), float64(open.hits+open.misses))
		mt["write_amp"] = ratio(float64(open.flashWrites+open.gcMg), float64(open.flashWrites))
		return out, nil
	}

	nOpen := float64(open.tally.attempted)
	mt["core.access_ns"] = ratio(float64(open.accessNs), float64(open.accessN))
	mt["core.evictions_per_kreq"] = float64(open.evictions) / nOpen * 1000
	mt["core.pages_per_eviction"] = ratio(float64(open.evictPages), float64(open.evictions))
	mt["ssd.flash_writes_per_req"] = float64(open.flashWrites) / nOpen
	mt["ssd.flash_reads_per_req"] = float64(open.flashReads) / nOpen
	mt["serve.queue_us_p50"] = open.queueUs
	mt["serve.window_us_mean"] = open.windowUsMean
	mt["serve.service_us_p50"] = open.serviceUs
	mt["serve.http_us_p50"] = open.httpUs
	mt["serve.shed_share"] = ratio(float64(open.tally.shed), nOpen)
	mt["serve.rejected_share"] = ratio(float64(open.tally.rejected), nOpen)
	mt["gen.late_p50_ms"] = open.lateP50
	mt["gen.late_p99_ms"] = open.lateP99
	mt["gen.lat_p50_ms"] = open.latP50
	mt["gen.lat_p99_ms"] = open.latP99
	mt["go.allocs_per_req"] = float64(plain.gc.allocs) / plain.ops
	mt["go.gc_cycles_per_kreq"] = float64(plain.gc.gcCycles) / plain.ops * 1000
	mt["bench.traced_ns_per_req"] = 1e9 / traced.opsPerS
	mt["bench.trace_overhead"] = plain.opsPerS/traced.opsPerS - 1
	notApplicable(mt)

	path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-serve-http-seed%d.json", cfg.seed))
	threads := map[int]string{}
	for w := 0; w < conns; w++ {
		threads[w+1] = fmt.Sprintf("connection %d", w)
	}
	if err := writeChromeTrace(path, "perfbench serve-http", threads, open.spans); err != nil {
		return nil, err
	}
	out.notes = append(out.notes, fmt.Sprintf("spans: %s (%d spans)", path, len(open.spans)))
	return out, nil
}

// missedLimit stands for a failed op's latency: it misses every limit.
const missedLimit = 1e300

// submitSpans builds an op's span tree: the client's Submit, with the
// server-reported queue (holding the write-window wait) and service
// phases placed after half of the HTTP round-trip overhead.
func submitSpans(seq int64, r *opRec) []span {
	q, w, s := r.resp.QueueNs, r.resp.WindowNs, r.resp.ServiceNs
	httpNs := max(0, r.done-r.start-q-s)
	at := r.start + httpNs/2
	tid := 1 + r.worker
	out := []span{
		{name: "submit", cat: "request", tid: tid, id: seq, start: r.start, end: r.done},
		{name: "serve.queue", cat: "host", tid: tid, id: seq, parent: "submit", start: at, end: at + q},
	}
	if w > 0 {
		out = append(out, span{name: "serve.window", cat: "host", tid: tid, id: seq, parent: "serve.queue", start: at, end: at + w})
	}
	return append(out, span{name: "serve.service", cat: "host", tid: tid, id: seq, parent: "submit", start: at + q, end: at + q + s})
}
