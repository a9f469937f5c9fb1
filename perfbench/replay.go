package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Replay workloads. One repetition builds the program afresh (devices
// with their preconditioning, policies, the source) — that is the set-up
// time — and then times the replay call. The cache starts empty in every
// repetition, as in the paper's runs, and a repetition of the same input
// must reproduce its simulated metrics exactly.

// replaySpec describes one replay workload.
type replaySpec struct {
	name string
	// prepare generates the inputs from the seed (the benchmark's work,
	// outside every timed region); repetitions cycle through them.
	prepare func(cfg config) ([]*replayInput, error)
	// guard checks that an input still measures what the workload exists
	// for.
	guard func(g *gate, m *replay.Metrics)
	// policyLayer names the span and metric prefix of the policy's Access.
	policyLayer string
}

// replayInput is one prepared input: its request count, the routing a
// probe must follow, and a set-up function building one repetition's
// program.
type replayInput struct {
	requests int
	shards   int
	plan     *sampling // traced runs only
	setup    func(p *probe) (*replayRig, error)
	cleanup  func()
}

// replayRig is one repetition's program, built and ready to run.
type replayRig struct {
	devs      []*ssd.Device
	pols      []cache.Policy
	reqBlocks []*core.ReqBlock // where Req-block runs
	// run replays with the given merged-stream observers appended.
	run func(observers []sim.Observer) (*replay.Metrics, error)
}

// wrapPolicy lets tests substitute a deliberately broken policy.
var wrapPolicy = func(p cache.Policy) cache.Policy { return p }

var streamSpec = replaySpec{
	name:        "replay-stream",
	prepare:     prepareStream,
	policyLayer: "core.access",
	guard: func(g *gate, m *replay.Metrics) {
		g.check(m.Device.GCRuns == 0, "replay-stream guard: %d GC runs, the workload must not collect garbage", m.Device.GCRuns)
		g.check(m.Device.WriteAmplification() == 1, "replay-stream guard: write amplification %.4f, want 1.000", m.Device.WriteAmplification())
	},
}

var gcShardedSpec = replaySpec{
	name:        "replay-gc-sharded",
	prepare:     prepareGCSharded,
	policyLayer: "cache.access",
	guard: func(g *gate, m *replay.Metrics) {
		g.check(m.Device.GCRuns > 0, "replay-gc-sharded guard: no GC runs, the device is not under GC pressure")
		g.check(m.BackPressureStalls > 0, "replay-gc-sharded guard: no back-pressure stalls")
		var perShard [gcShards]int64
		for t, tm := range m.Tenants {
			perShard[t%gcShards] += tm.Response.Count()
		}
		for k, n := range perShard {
			g.check(n*5 >= int64(m.Requests), "replay-gc-sharded guard: shard %d served %d of %d requests, want at least a fifth", k, n, m.Requests)
		}
	},
}

func runReplayStream(cfg config) (*outcome, error)    { return runReplay(cfg, streamSpec) }
func runReplayGCSharded(cfg config) (*outcome, error) { return runReplay(cfg, gcShardedSpec) }

// generating runs input generation with the collector kept tight, so the
// generator's transient garbage does not set the process's peak RSS, and
// collects afterwards.
func generating[T any](gen func() (T, error)) (T, error) {
	old := debug.SetGCPercent(10)
	defer func() {
		debug.SetGCPercent(old)
		settleHeap()
	}()
	return gen()
}

// settleHeap collects garbage and returns the freed memory to the OS
// before a set-up, so every repetition starts from the same heap and a
// new device cannot land beside the previous one's still-resident pages
// and lift the peak RSS.
func settleHeap() { debug.FreeOSMemory() }

// prepareStream writes a src1_2-shaped trace (Table 2: 75% writes, mixed
// small and large) at scale 1 to an MSR CSV file that each repetition
// streams through trace.Scan, on ssdreplay's default device and Req-block
// at 16 MiB. At this size the 50%-preconditioned device never collects
// garbage.
func prepareStream(cfg config) ([]*replayInput, error) {
	tr, err := generating(func() (*trace.Trace, error) {
		return workload.Generate(workload.SRC12(), workload.Options{Scale: cfg.scale, SeedOffset: cfg.seed})
	})
	if err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(cfg.workDir, fmt.Sprintf("src1_2-seed%d-*.csv", cfg.seed))
	if err != nil {
		return nil, err
	}
	path := f.Name()
	cleanup := func() { os.Remove(path) }
	if err := trace.WriteMSR(f, tr); err != nil {
		f.Close()
		cleanup()
		return nil, err
	}
	if err := f.Close(); err != nil {
		cleanup()
		return nil, err
	}
	name := filepath.Base(path)
	var plan *sampling
	if cfg.trace {
		plan = newSampling(len(tr.Requests), nil, 1)
	}
	in := &replayInput{requests: len(tr.Requests), shards: 1, plan: plan, cleanup: cleanup}
	in.setup = func(p *probe) (*replayRig, error) {
		dev, err := ssd.New(ssd.ScaledParams(16))
		if err != nil {
			return nil, err
		}
		rb := core.New(16 * 256)
		var pol cache.Policy = rb
		if p != nil {
			pol = &timedReqBlock{ReqBlock: rb, sp: p.shards[0]}
		}
		pol = wrapPolicy(pol)
		file, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		var src trace.Source = trace.Scan(file, name)
		if p != nil {
			src = p.source(src)
		}
		return &replayRig{
			devs: []*ssd.Device{dev}, pols: []cache.Policy{pol}, reqBlocks: []*core.ReqBlock{rb},
			run: func(observers []sim.Observer) (*replay.Metrics, error) {
				defer file.Close()
				if p != nil {
					observers = append(observers, p.shards[0])
				}
				// ssdreplay's defaults: Fig. 13 occupancy series on.
				return replay.RunSource(src, pol, dev, replay.Options{SeriesInterval: 10000, Observers: observers})
			},
		}, nil
	}
	return []*replayInput{in}, nil
}

const (
	gcShards = 2
	// gcInputs is how many mixes one replay-gc-sharded run replays: its
	// simulated metrics are the mean over them, which damps how much a
	// single seed's garbage-collection timing moves them.
	gcInputs = 5
)

// prepareGCSharded builds gcInputs in-memory multi-tenant mixes (ts_0,
// hm_1, usr_0 and src1_2 stacked by footprint), each replayed across two
// shards routed by tenant, FAB at 16 MiB shared, every shard on a small
// device preconditioned to 90% with destage back-pressure and greedy GC.
func prepareGCSharded(cfg config) ([]*replayInput, error) {
	var ins []*replayInput
	for i := 0; i < gcInputs; i++ {
		in, err := gcShardedInput(cfg, cfg.seed*gcInputs+int64(i))
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	return ins, nil
}

func gcShardedInput(cfg config, seedOffset int64) (*replayInput, error) {
	profiles := []workload.Profile{workload.TS0(), workload.HM1(), workload.USR0(), workload.SRC12()}
	tr, err := generating(func() (*trace.Trace, error) {
		return workload.Mix("mix4", workload.Options{Scale: cfg.scale, SeedOffset: seedOffset}, profiles...)
	})
	if err != nil {
		return nil, err
	}
	var boundaries []int64
	var top int64
	for _, p := range profiles {
		top += p.FootprintPages
		boundaries = append(boundaries, top)
	}
	params := ssd.ScaledParams(64)
	params.Precondition = 0.9
	const totalPages = 16 * 256
	var plan *sampling
	if cfg.trace {
		pageSize := int64(params.Flash.PageSize)
		plan = newSampling(len(tr.Requests), func(id int) int {
			first, _ := tr.Requests[id].PageSpan(pageSize)
			return sim.RouteLPN(first, boundaries, 0, gcShards)
		}, gcShards)
	}
	in := &replayInput{requests: len(tr.Requests), shards: gcShards, plan: plan, cleanup: func() {}}
	in.setup = func(p *probe) (*replayRig, error) {
		rig := &replayRig{}
		for k := 0; k < gcShards; k++ {
			dev, err := ssd.New(params)
			if err != nil {
				return nil, err
			}
			capPages, _ := sim.ShardQuota(sim.SharingShared, totalPages, gcShards, k)
			fab := cache.NewFAB(capPages, params.Flash.PagesPerBlock)
			var pol cache.Policy = fab
			if p != nil {
				pol = &timedFAB{FAB: fab, sp: p.shards[k]}
			}
			rig.devs = append(rig.devs, dev)
			rig.pols = append(rig.pols, wrapPolicy(pol))
		}
		var src trace.Source = tr.Source()
		if p != nil {
			src = p.source(src)
		}
		spec := replay.ShardSpec{
			Shards:             gcShards,
			Sharing:            sim.SharingShared,
			TotalCapacityPages: totalPages,
			NewPolicy:          func(k, _ int) cache.Policy { return rig.pols[k] },
			NewDevice:          func(k int) (*ssd.Device, error) { return rig.devs[k], nil },
		}
		if p != nil {
			spec.ShardObservers = func(k int, _ *sim.Engine) []sim.Observer { return []sim.Observer{p.shards[k]} }
		}
		rig.run = func(observers []sim.Observer) (*replay.Metrics, error) {
			if p != nil {
				observers = append(observers, &mergedObserver{p: p})
			}
			return replay.RunSharded(src, spec, replay.Options{
				BackPressureDepth: 4,
				TenantBoundaries:  boundaries,
				Observers:         observers,
			})
		}
		return rig, nil
	}
	return in, nil
}

// conservation counts pages entering and leaving the caches on the
// merged stream: inserted minus evicted must equal what stays buffered.
type conservation struct {
	sim.NopObserver
	inserted, evicted, batches int64
}

func (c *conservation) OnResult(_ *sim.Engine, ev *sim.ResultEvent) {
	c.inserted += int64(ev.Res.Inserted)
}

func (c *conservation) OnEviction(_ *sim.Engine, ev *sim.EvictionEvent) {
	c.evicted += int64(len(ev.LPNs))
	c.batches++
}

// invariants is sim.InvariantObserver for one event stream. The
// observer's per-kind table predates sim.EvictQuota, the fifth eviction
// kind, and reports every SHARED quota drain as an unknown kind; quota
// batches are checked here and every other event goes to the observer
// unchanged. The engine drains the quota when the request that overfilled
// the cache completes, so a quota batch must follow a result and be
// dispatched at that result's completion time. (Completions are not
// monotonic, so the observer's non-decreasing rule does not apply.)
type invariants struct {
	*sim.InvariantObserver
	quotaErr       error
	lastCompletion int64
	haveResult     bool
}

func newInvariants() *invariants { return &invariants{InvariantObserver: &sim.InvariantObserver{}} }

func (o *invariants) OnResult(e *sim.Engine, ev *sim.ResultEvent) {
	o.InvariantObserver.OnResult(e, ev)
	o.haveResult, o.lastCompletion = true, ev.Completion
}

func (o *invariants) OnEviction(e *sim.Engine, ev *sim.EvictionEvent) {
	if ev.Kind != sim.EvictQuota {
		o.InvariantObserver.OnEviction(e, ev)
		return
	}
	if o.quotaErr != nil {
		return
	}
	switch {
	case len(ev.LPNs) == 0:
		o.quotaErr = fmt.Errorf("sim invariant: empty quota eviction batch at %d", ev.Time)
	case !o.haveResult || ev.Time != o.lastCompletion:
		o.quotaErr = fmt.Errorf("sim invariant: quota eviction at %d, not at the completion %d of the result before it", ev.Time, o.lastCompletion)
	case ev.Durable != 0 && ev.Durable < ev.Transferred:
		o.quotaErr = fmt.Errorf("sim invariant: quota eviction durable at %d before transfer finished at %d", ev.Durable, ev.Transferred)
	}
}

// Err returns the observer's first violation and the first quota one, or nil.
func (o *invariants) Err() error { return errors.Join(o.InvariantObserver.Err(), o.quotaErr) }

// repetition is one measured replay.
type repetition struct {
	input       int
	setup, wall time.Duration
	// callGiven is the share of the CPU time asked for during the replay
	// call that the VM was given; setupGiven the same over the set-up
	// and the call together, since a set-up alone spans too few clock
	// ticks to count steal in.
	setupGiven, callGiven float64
	metrics               *replay.Metrics
	device                ssd.Counters // summed over the repetition's devices
	probe                 *probe       // traced repetitions only
	batches               int64        // eviction batches of every kind
	scanCost              int64        // victim-selection work of every policy
	goDelta               goCounters
	cpu                   time.Duration // process CPU time during the replay call
}

var errReplayFailed = errors.New("replay failed its correctness gate")

// replayOnce builds and runs one repetition and checks its outputs. A
// traced repetition wraps the source and policies with a probe and
// attaches the invariant check.
func replayOnce(in *replayInput, traced bool, g *gate, name string) (*repetition, error) {
	settleHeap()
	var p *probe
	if traced {
		p = newProbe(in.plan, in.shards)
	}
	c0, t0 := ticksNow(), time.Now()
	rig, err := in.setup(p)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	setup := time.Since(t0)
	cons := &conservation{}
	observers := []sim.Observer{cons}
	var inv *invariants
	if traced {
		inv = newInvariants()
		observers = append(observers, inv)
	}
	go0, cpu0 := readGoCounters(), cpuTime()
	c2, t1 := ticksNow(), time.Now()
	m, err := rig.run(observers)
	wall, c3 := time.Since(t1), ticksNow()
	cpu := cpuTime() - cpu0
	goDelta := readGoCounters().sub(go0)
	if err != nil {
		g.noErr(err, name+" replay")
		return nil, errReplayFailed
	}

	rep := &repetition{setup: setup, wall: wall, cpu: cpu, metrics: m, probe: p, batches: cons.batches, goDelta: goDelta}
	rep.setupGiven, rep.callGiven = given(c0, c3), given(c2, c3)
	for k, dev := range rig.devs {
		g.noErr(dev.CheckInvariants(), fmt.Sprintf("%s shard %d device invariants", name, k))
		c := dev.Counters()
		rep.device.FlashWrites += c.FlashWrites
		rep.device.FlashReads += c.FlashReads
		rep.device.GCRuns += c.GCRuns
		rep.device.GCPauseNs += c.GCPauseNs
	}
	for k, rb := range rig.reqBlocks {
		g.noErr(rb.CheckInvariants(), fmt.Sprintf("%s shard %d Req-block invariants", name, k))
	}
	if inv != nil {
		g.noErr(inv.Err(), name+" sim invariants")
	}
	var buffered int64
	for _, pol := range rig.pols {
		buffered += int64(pol.Len())
		if r, ok := pol.(cache.VictimScanReporter); ok {
			rep.scanCost += r.VictimScanCost()
		}
	}
	g.check(cons.inserted-cons.evicted == buffered,
		"%s page conservation: %d inserted - %d evicted != %d buffered", name, cons.inserted, cons.evicted, buffered)
	g.check(m.Requests == in.requests, "%s processed %d of %d requests", name, m.Requests, in.requests)
	return rep, nil
}

// runReplay drives one replay workload: an untimed warm-up repetition,
// then repetitions cycling through the inputs until the timed budget is
// spent. Untraced runs report the end-to-end metrics; traced runs
// alternate untraced and traced repetitions and report the per-layer
// metrics plus the tracing overhead.
func runReplay(cfg config, spec replaySpec) (*outcome, error) {
	ins, err := spec.prepare(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s inputs: %w", spec.name, err)
	}
	for _, in := range ins {
		defer in.cleanup()
	}
	out := &outcome{metrics: map[string]float64{}}
	g := &out.gate

	// The warm-up repetition is untimed (the first sharded replay in a
	// process runs markedly slower) but checked. Each input's first
	// repetition is the reference its later repetitions must reproduce.
	warm, err := replayOnce(ins[0], false, g, spec.name)
	if err != nil {
		return finishFailed(out, ins, err)
	}
	refs := make([]*replay.Metrics, len(ins))
	refs[0] = warm.metrics
	spec.guard(g, warm.metrics)
	setups := []*repetition{warm}
	var plain, traced []*repetition
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; ; i++ {
		enough := len(plain) >= len(ins) && (!cfg.trace || len(traced) >= 2)
		if enough && time.Since(start) >= budget {
			break
		}
		k := i % len(ins)
		tracedRep := cfg.trace && i%2 == 1
		rep, err := replayOnce(ins[k], tracedRep, g, spec.name)
		if err != nil {
			return finishFailed(out, ins, err)
		}
		rep.input = k
		if refs[k] == nil {
			refs[k] = rep.metrics
			spec.guard(g, rep.metrics)
		} else {
			// Simulated metrics are a pure function of the input:
			// identical across repetitions, with tracing on or off.
			g.check(reflect.DeepEqual(rep.metrics, refs[k]),
				"%s repetition %d (input %d, traced=%v): simulated metrics differ from the input's first repetition", spec.name, i, k, tracedRep)
		}
		setups = append(setups, rep)
		if tracedRep {
			traced = append(traced, rep)
		} else {
			plain = append(plain, rep)
		}
	}
	for _, rep := range append(append([]*repetition{warm}, plain...), traced...) {
		out.attempted += int64(ins[rep.input].requests)
		out.failed += int64(ins[rep.input].requests - rep.metrics.Requests)
	}
	if !cfg.trace {
		return out, replayEndToEnd(out, refs, plain, setups)
	}
	return out, replayLayers(cfg, spec, out, plain, traced)
}

// replayEndToEnd reports the end-to-end metrics: host figures are
// medians over the repetitions in steal-free time, simulated ones the
// mean over the inputs. setups holds every repetition whose set-up
// counts, the warm-up's too.
func replayEndToEnd(out *outcome, refs []*replay.Metrics, plain, setups []*repetition) error {
	var walls, wallsFree, ratesFree, givens, cpuPerReq, setupWalls, setupsFree []float64
	for _, r := range plain {
		ms := float64(r.wall) / 1e6
		walls = append(walls, ms)
		wallsFree = append(wallsFree, ms*r.callGiven)
		ratesFree = append(ratesFree, float64(r.metrics.Requests)/(r.wall.Seconds()*r.callGiven))
		givens = append(givens, r.callGiven)
		cpuPerReq = append(cpuPerReq, float64(r.cpu)/1e3/float64(r.metrics.Requests))
	}
	for _, r := range setups {
		setupWalls = append(setupWalls, seconds(r.setup))
		setupsFree = append(setupsFree, seconds(r.setup)*r.setupGiven)
	}
	out.notes = append(out.notes, fmt.Sprintf("repetitions: %d, replay wall ms %.1f", len(plain), walls),
		fmt.Sprintf("CPU time given, median over replay calls: %.4f; wall-clock medians: %.1f ms per call, set-up %.4f s",
			median(givens), median(walls), median(setupWalls)))
	rss, err := maxRSSMiB()
	if err != nil {
		return err
	}
	var resp, p99, hits, wa float64
	for _, m := range refs {
		resp += m.Response.Mean() / 1e3
		p99 += m.ResponseP99.Value() / 1e3
		hits += m.HitRatio()
		wa += m.Device.WriteAmplification()
	}
	n := float64(len(refs))
	mt := out.metrics
	// Medians over repetitions: a repetition slowed by the host's other
	// tenants moves them less than it moves a total.
	mt["throughput_req_per_s"] = median(ratesFree)
	mt["cpu_us_per_req"] = median(cpuPerReq)
	mt["lat_p50_ms"] = median(wallsFree)
	mt["setup_s"] = median(setupsFree)
	mt["max_rss_mb"] = rss
	mt["sim_resp_mean_us"] = resp / n
	mt["sim_resp_p99_us"] = p99 / n
	mt["hit_ratio"] = hits / n
	mt["write_amp"] = wa / n
	return nil
}

// replayLayers reports the per-layer metrics of a traced run and writes
// the first traced repetition's spans.
func replayLayers(cfg config, spec replaySpec, out *outcome, plain, traced []*repetition) error {
	nsPerReq := func(reps []*repetition) float64 {
		var wall time.Duration
		var reqs int
		for _, r := range reps {
			wall += r.wall
			reqs += r.metrics.Requests
		}
		return float64(wall.Nanoseconds()) / float64(reqs)
	}
	untraced, tracedNs := nsPerReq(plain), nsPerReq(traced)

	// Per-request layer means, weighted by each repetition's timed count;
	// counters summed over the traced repetitions.
	var next, access, dispatch, merge, busy, weight float64
	var reqs, evictions, evictPages, batches, scan float64
	var dev ssd.Counters
	var bpStallNs int64
	for _, r := range traced {
		lt := r.probe.summarize(r.wall.Nanoseconds())
		w := float64(lt.timedRequests)
		next += lt.nextNs * w
		access += lt.accessNs * w
		dispatch += lt.dispatchNs * w
		merge += lt.mergeWaitNs * w
		busy += mean(lt.busyShare) * w
		weight += w
		for _, sp := range r.probe.shards {
			evictions += float64(sp.evictions)
			evictPages += float64(sp.evictPages)
		}
		reqs += float64(r.metrics.Requests)
		batches += float64(r.batches)
		scan += float64(r.scanCost)
		dev.FlashWrites += r.device.FlashWrites
		dev.FlashReads += r.device.FlashReads
		dev.GCRuns += r.device.GCRuns
		dev.GCPauseNs += r.device.GCPauseNs
		bpStallNs += r.metrics.BackPressureStallNs
	}
	next, access, dispatch, merge, busy = next/weight, access/weight, dispatch/weight, merge/weight, busy/weight

	mt := out.metrics
	mt["trace.next_ns"] = next
	mt[spec.policyLayer+"_ns"] = access
	mt["sim.dispatch_ns"] = dispatch
	// Self time of the replay call: everything per request the timed
	// layers do not cover (engine loop, idle stage, the replay's metric
	// observers, the probe's own overhead, and on a sharded replay the
	// splitter and merger — negative when the shards' spans overlap).
	mt["sim.engine_self_ns"] = tracedNs - next - access - dispatch
	mt["sim.shard_busy_share"] = busy
	if len(traced[0].probe.shards) > 1 {
		mt["sim.merge_wait_ns"] = merge
	}
	if spec.policyLayer == "core.access" {
		mt["core.evictions_per_kreq"] = evictions / reqs * 1000
		mt["core.pages_per_eviction"] = ratio(evictPages, evictions)
	} else {
		mt["cache.scan_per_eviction"] = ratio(scan, batches)
	}
	mt["ssd.flash_writes_per_req"] = float64(dev.FlashWrites) / reqs
	mt["ssd.flash_reads_per_req"] = float64(dev.FlashReads) / reqs
	mt["ssd.gc_runs_per_kreq"] = float64(dev.GCRuns) / reqs * 1000
	mt["ssd.gc_pause_us_per_req"] = float64(dev.GCPauseNs) / 1e3 / reqs
	mt["ssd.bp_stall_us_per_req"] = float64(bpStallNs) / 1e3 / reqs
	var gc goCounters
	var plainReqs float64
	for _, r := range plain {
		gc.allocs += r.goDelta.allocs
		gc.gcCycles += r.goDelta.gcCycles
		plainReqs += float64(r.metrics.Requests)
	}
	mt["go.allocs_per_req"] = float64(gc.allocs) / plainReqs
	mt["go.gc_cycles_per_kreq"] = float64(gc.gcCycles) / plainReqs * 1000
	mt["bench.trace_overhead"] = (tracedNs - untraced) / untraced
	mt["bench.traced_ns_per_req"] = tracedNs
	notApplicable(mt)

	path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-seed%d.json", spec.name, cfg.seed))
	threads := map[int]string{1: "engine"}
	if len(traced[0].probe.shards) > 1 {
		threads = map[int]string{1: "splitter", 2: "merger"}
		for k := range traced[0].probe.shards {
			threads[10+k] = fmt.Sprintf("shard %d", k)
		}
	}
	spans := traced[0].probe.spans(spec.policyLayer)
	if err := writeChromeTrace(path, "perfbench "+spec.name, threads, spans); err != nil {
		return err
	}
	out.notes = append(out.notes, fmt.Sprintf("spans: %s (%d spans)", path, len(spans)))
	return nil
}

// finishFailed reports a replay whose call failed: the gate holds the
// error, and the run reports zeros for every metric.
func finishFailed(out *outcome, ins []*replayInput, err error) (*outcome, error) {
	if !errors.Is(err, errReplayFailed) {
		return nil, err
	}
	out.attempted = int64(ins[0].requests)
	out.failed = int64(ins[0].requests)
	for name := range endToEndUnits {
		out.metrics[name] = 0
	}
	notApplicable(out.metrics)
	return out, nil
}
