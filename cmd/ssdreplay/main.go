// Command ssdreplay replays one block trace — an MSR Cambridge CSV file or
// a built-in synthetic workload — against the simulated SSD with a chosen
// cache policy, and reports the paper's metrics for that single run.
//
// Usage:
//
//	ssdreplay -trace msr.csv -policy reqblock -cache-mb 16
//	ssdreplay -workload src1_2 -scale 0.1 -policy vbbms -cache-mb 32
//
// Policies: lru, fifo, lfu, cflru, fab, bplru, bplru-pad, vbbms, pudlru,
// ecr, reqblock.
//
// Observability (docs/OBSERVABILITY.md):
//
//	-listen 127.0.0.1:9090      live /metrics, /healthz, /debug/pprof
//	-progress 10000             NDJSON snapshot to stderr every N requests
//	-blame                      per-cause latency attribution table
//	-perfetto trace.json        sampled request trace events (with -trace-sample)
//	-flight-recorder DIR        anomaly flight-recorder dumps into DIR
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		traceFile = flag.String("trace", "", "trace file (MSR Cambridge CSV by default; see -format)")
		format    = flag.String("format", "msr", "trace file format: msr or spc (UMass/SPC-1)")
		blockSize = flag.Int64("block-size", 512, "LBA unit in bytes for -format spc")
		wl        = flag.String("workload", "", "built-in workload name instead of -trace")
		scale     = flag.Float64("scale", 0.2, "workload scale (with -workload)")
		policy    = flag.String("policy", "reqblock", "cache policy")
		cacheMB   = flag.Int("cache-mb", 16, "data cache size in MiB")
		delta     = flag.Int("delta", core.DefaultDelta, "Req-block δ")
		readahead = flag.Int("readahead", 0, "wrap the policy with an N-page readahead read cache (0 = off)")
		divisor   = flag.Int("device-divisor", 16, "flash array size divisor (1 = full 128 GiB)")
		faults    = flag.String("faults", "", "fault injection spec, comma-separated key=value: seed, pfail, efail, grown, pfail-at, efail-at, retries, reserve, crash-at, destage-ms, check, preworn, preworn-jitter (see docs/FAULTS.md)")
		aged      = flag.Bool("aged", false, "age the device before replay: pre-worn blocks near the P/E budget plus an elevated grown-defect rate, merged under any -faults spec (docs/GC.md)")
		idleFlush = flag.Float64("idle-flush-ms", 0, "idle-window threshold in ms: inter-arrival gaps past it trigger proactive flushing (0 = off)")
		gcBudget  = flag.Float64("gc-budget-ms", 0, "enable the preemptible GC scheduler and spend up to this much simulated ms per idle window (requires -idle-flush-ms; 0 = greedy GC)")
		maxSkip   = flag.Int("max-skipped", 0, "malformed trace lines skipped before aborting (0 = strict, -1 = unlimited)")
		verbose   = flag.Bool("v", false, "print extended metrics")

		shards       = flag.Int("shards", 1, "partition the cache into N tenant shards replayed in parallel (1 = single engine)")
		sharing      = flag.String("sharing", "shared", "capacity sharing across shards: shared (soft quotas) or equal (hard partitions)")
		backpressure = flag.Int("backpressure", 0, "bound the destage backlog to N flush batches; admissions stall past it (0 = off)")
		tenantRegion = flag.Int64("tenant-region", 0, "pages per hash region for shard routing without tenant boundaries (0 = default 4096)")

		listen      = flag.String("listen", "", "serve live /metrics, /healthz and /debug/pprof on this address (e.g. 127.0.0.1:9090; empty = off)")
		progressN   = flag.Int("progress", 0, "emit an NDJSON progress snapshot to stderr every N processed requests (0 = off)")
		traceSample = flag.Int("trace-sample", 1024, "sample 1 in N requests for -perfetto")
		traceSeed   = flag.Uint64("trace-seed", 1, "sampler seed for -perfetto (same seed + rate = same sample)")
		blame       = flag.Bool("blame", false, "print the per-cause tail-latency blame table after the run")
		perfetto    = flag.String("perfetto", "", "write sampled requests as Chrome trace-event JSON (Perfetto-loadable) to this file")
		flightDir   = flag.String("flight-recorder", "", "record recent events per shard and dump NDJSON rings into this directory on anomalies and at run end")
	)
	profiles := prof.Register(flag.CommandLine)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "ssdreplay:", err)
		profiles.Stop() // os.Exit skips defers; flush profiles explicitly
		os.Exit(1)
	}
	fcfg, err := fault.ParseSpec(*faults)
	if err != nil {
		fail(err)
	}
	if *aged {
		fcfg = experiments.AgedFaults(fcfg)
	}
	params := ssd.ScaledParams(*divisor)
	params.Faults = fcfg
	if *aged {
		// An aged device is nearly full, not just worn: GC (and with it
		// wear detection and retirement) must actually run.
		params.Precondition = 0.9
	}
	smode, err := sim.ParseSharing(*sharing)
	if err != nil {
		fail(err)
	}
	if *shards < 1 {
		fail(fmt.Errorf("-shards %d, need >= 1", *shards))
	}
	opts := replay.Options{TrackPageFates: *verbose, SeriesInterval: 10000}
	opts.ApplyFaults(fcfg)
	opts.BackPressureDepth = *backpressure
	opts.IdleFlushNs = int64(*idleFlush * 1e6)
	opts.GCBudgetNs = int64(*gcBudget * 1e6)

	// Telemetry plane (all optional, all passive; docs/OBSERVABILITY.md).
	// tel stays nil without -listen/-blame; every use below is nil-safe.
	var tel *obs.Telemetry
	var observers []sim.Observer
	if *listen != "" || *blame {
		tel = obs.New()
		observers = append(observers, tel.Observer())
	}
	if *listen != "" {
		srv, err := obs.Serve(*listen, tel.Handler())
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "ssdreplay: telemetry on http://%s\n", srv.Addr())
	}
	var fr *obs.FlightRecorder
	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			fail(err)
		}
		fr = obs.NewFlightRecorder(*shards, 0, *flightDir)
		tel.SetFlightRecorder(fr)
	}
	if *progressN > 0 {
		observers = append(observers, obs.NewProgress(os.Stderr, *progressN))
	}
	var pexp *obs.TraceExport
	if *perfetto != "" {
		f, err := os.Create(*perfetto)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		pexp = obs.NewTraceExport(f, *traceSample, *traceSeed)
		observers = append(observers, pexp)
	}
	opts.Observers = observers

	// Each shard owns a policy slice and its own device; with more than one,
	// events re-merge deterministically (docs/ARCHITECTURE.md). One shard is
	// the bare engine: it also feeds policy list transitions to the Perfetto
	// export and reports the device's fault op totals.
	var dev *ssd.Device
	telHook := func(int, *sim.Engine) []sim.Observer { return nil }
	if *shards > 1 {
		telHook = tel.ShardObservers(*shards)
	}
	spec := replay.ShardSpec{
		Shards:             *shards,
		Sharing:            smode,
		TotalCapacityPages: *cacheMB * 256,
		NewPolicy: func(_, capPages int) cache.Policy {
			p, err := buildPolicy(*policy, capPages, params.Flash.PagesPerBlock, params.Flash.Channels, *delta)
			if err != nil {
				fail(err)
			}
			if *readahead > 0 {
				p = cache.NewReadAhead(p, *readahead, 8)
			}
			if src, ok := p.(cache.TransitionSource); ok && pexp != nil && *shards == 1 {
				src.SetTransitionSink(pexp)
			}
			return p
		},
		NewDevice: func(k int) (*ssd.Device, error) {
			d, err := ssd.New(params)
			if err == nil {
				d.SetTap(obs.MultiTap(tel, fr.Tap(k)))
				if *shards == 1 {
					dev = d
				}
			}
			return d, err
		},
		TenantRegionPages: *tenantRegion,
		ShardObservers: func(k int, eng *sim.Engine) []sim.Observer {
			o := telHook(k, eng)
			if fr != nil {
				o = append(o, fr.Observer(k))
			}
			return o
		},
	}
	// An MSR trace file streams through the replay in constant memory: the
	// scanner hands requests to the engine one at a time, so trace size no
	// longer bounds what this command can replay. -v falls back to the
	// materialized path because the Fig. 2/3 small/large threshold derives
	// from the whole trace; SPC files and built-in workloads are
	// materialized by construction.
	var (
		m       *replay.Metrics
		skipped int
	)
	if *traceFile != "" && *wl == "" && *format == "msr" && !*verbose {
		f, err := os.Open(*traceFile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := profiles.Start(); err != nil {
			fail(err)
		}
		sc := trace.ScanMSRWith(f, *traceFile, trace.MSROptions{MaxSkipped: *maxSkip})
		if m, err = replay.RunSharded(sc, spec, opts); err != nil {
			fail(err)
		}
		skipped = sc.SkippedLines()
	} else {
		tr, err := loadTrace(*traceFile, *format, *blockSize, *wl, *scale, *maxSkip)
		if err != nil {
			fail(err)
		}
		if err := profiles.Start(); err != nil {
			fail(err)
		}
		if m, err = replay.RunShardedTrace(tr, int64(params.Flash.PageSize), spec, opts); err != nil {
			fail(err)
		}
		skipped = tr.SkippedLines
	}
	if err := profiles.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "ssdreplay:", err)
		os.Exit(1)
	}
	if pexp != nil {
		if err := pexp.Close(); err != nil {
			fail(fmt.Errorf("perfetto: %w", err))
		}
	}
	if fr != nil {
		// A run-end dump makes the flight-recorder output deterministic for
		// smoke tests even when no anomaly fired during the run.
		if path := fr.Trigger("run-end", 0, 0); path != "" {
			fmt.Fprintf(os.Stderr, "ssdreplay: flight recorder dump %s\n", path)
		}
	}
	report(m, *verbose)
	if *blame {
		fmt.Println()
		if err := tel.Blame.WriteBlameTable(os.Stdout, 0.50, 0.99, 0.999); err != nil {
			fail(err)
		}
	}
	if *shards > 1 {
		fmt.Printf("shards          %d (%s sharing)\n", *shards, smode)
	}
	if *gcBudget > 0 {
		g := m.GCSched
		fmt.Printf("gc scheduler    %d jobs started, %d completed, %d abandoned (%d idle / %d background / %d mandatory victims)\n",
			g.JobsStarted, g.JobsCompleted, g.JobsAbandoned, g.VictimsIdle, g.VictimsBackground, g.VictimsMandatory)
		fmt.Printf("gc preemption   %d preempts, %d resumes, %d paced steps, %d cost-deferred slices, %d idle collections\n",
			g.Preempts, g.Resumes, g.PacedSteps, g.CostDeferred, m.IdleGCRuns)
	}
	if *backpressure > 0 {
		fmt.Printf("back-pressure   %d stalls, %.3f ms total (depth %d)\n",
			m.BackPressureStalls, float64(m.BackPressureStallNs)/1e6, *backpressure)
	}
	if skipped > 0 {
		fmt.Printf("skipped lines   %d malformed (budget %d)\n", skipped, *maxSkip)
	}
	if fcfg.Enabled() {
		reportFaults(m, dev)
	}
}

func loadTrace(file, format string, blockSize int64, wl string, scale float64, maxSkip int) (*trace.Trace, error) {
	switch {
	case file != "" && wl != "":
		return nil, fmt.Errorf("use either -trace or -workload, not both")
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		switch format {
		case "msr":
			return trace.ReadMSRWith(f, file, trace.MSROptions{MaxSkipped: maxSkip})
		case "spc":
			return trace.ReadSPC(f, file, blockSize)
		default:
			return nil, fmt.Errorf("unknown trace format %q", format)
		}
	case wl != "":
		p, ok := workload.ByName(wl)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", wl)
		}
		return workload.Generate(p, workload.Options{Scale: scale})
	default:
		return nil, fmt.Errorf("need -trace FILE or -workload NAME")
	}
}

func buildPolicy(name string, capacityPages, pagesPerBlock, channels, delta int) (cache.Policy, error) {
	switch name {
	case "lru":
		return cache.NewLRU(capacityPages), nil
	case "fifo":
		return cache.NewFIFO(capacityPages), nil
	case "lfu":
		return cache.NewLFU(capacityPages), nil
	case "cflru":
		return cache.NewCFLRU(capacityPages), nil
	case "fab":
		return cache.NewFAB(capacityPages, pagesPerBlock), nil
	case "bplru":
		return cache.NewBPLRU(capacityPages, pagesPerBlock), nil
	case "bplru-pad":
		return cache.NewBPLRUWithPadding(capacityPages, pagesPerBlock), nil
	case "vbbms":
		return cache.NewVBBMS(capacityPages), nil
	case "pudlru":
		return cache.NewPUDLRU(capacityPages, pagesPerBlock), nil
	case "ecr":
		return cache.NewECR(capacityPages, channels), nil
	case "reqblock":
		return core.NewConfig(capacityPages, core.Config{Delta: delta, Merge: true, Recency: true}), nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}

func report(m *replay.Metrics, verbose bool) {
	fmt.Printf("trace           %s\n", m.Trace)
	fmt.Printf("policy          %s\n", m.Policy)
	fmt.Printf("requests        %d\n", m.Requests)
	fmt.Printf("hit ratio       %.4f (%d hits / %d accesses)\n",
		m.HitRatio(), m.PageHits, m.PageHits+m.PageMisses)
	fmt.Printf("mean response   %.3f ms (reads %.3f ms, writes %.3f ms)\n",
		m.Response.Mean()/1e6, m.ReadResponse.Mean()/1e6, m.WriteResponse.Mean()/1e6)
	fmt.Printf("response tail   P50 %.3f ms, P99 %.3f ms, P99.9 %.3f ms\n",
		m.ResponseP50.Value()/1e6, m.ResponseP99.Value()/1e6, m.ResponseP999.Value()/1e6)
	fmt.Printf("flash writes    %d (GC migrations %d, erases %d)\n",
		m.Device.FlashWrites, m.Device.GCMigrations, m.Device.Erases)
	fmt.Printf("flash reads     %d\n", m.Device.FlashReads)
	fmt.Printf("evictions       %d ops, %.1f pages/op, %d pages flushed\n",
		m.EvictionBatch.Total(), m.MeanEvictionPages(), m.FlushedPages)
	fmt.Printf("metadata        %d nodes peak × %d B = %.1f KB\n",
		m.MaxNodes, m.NodeBytes, float64(m.SpaceOverheadBytes())/1024)
	if verbose {
		fmt.Printf("write amp       %.3f\n", m.Device.WriteAmplification())
		fmt.Printf("clean drops     %d\n", m.CleanDrops)
		fmt.Printf("small threshold %d pages\n", m.SmallThresholdPages)
		if m.InsertBySize != nil {
			fmt.Printf("small insert/hit share  %.3f / %.3f\n",
				m.InsertBySize.FractionLE(m.SmallThresholdPages),
				m.HitBySize.FractionLE(m.SmallThresholdPages))
			fmt.Printf("large pages hit  %.3f of %d\n", m.LargeHitFraction(), m.LargeInserted)
		}
		for name, s := range m.ListSeries {
			last := 0.0
			if len(s.Samples) > 0 {
				last = s.Samples[len(s.Samples)-1]
			}
			fmt.Printf("list %-4s       %d samples, last %.0f pages\n", name, s.Len(), last)
		}
	}
}

// reportFaults prints the fault-injection outcome block (-faults runs).
// dev is nil on sharded runs, where per-device op totals are not reported.
func reportFaults(m *replay.Metrics, dev *ssd.Device) {
	c := m.Device
	if dev == nil {
		fmt.Printf("faults          pfail %d, efail %d, grown-bad %d\n",
			c.InjectedProgramFails, c.InjectedEraseFails, c.GrownBadBlocks)
	} else {
		fs := dev.FaultStats()
		fmt.Printf("faults          pfail %d, efail %d, grown-bad %d (over %d programs, %d erases)\n",
			c.InjectedProgramFails, c.InjectedEraseFails, c.GrownBadBlocks, fs.ProgramOps, fs.EraseOps)
	}
	fmt.Printf("recovery        %d retries, %d blocks retired, %d invariant checks\n",
		c.ProgramRetries, c.RetiredBlocks, c.InvariantChecks)
	if m.DestagedPages > 0 {
		fmt.Printf("destaged        %d pages\n", m.DestagedPages)
	}
	if m.Crashed {
		fmt.Printf("crash           after request %d: %d dirty pages lost\n",
			m.CrashedAtRequest, m.LostDirtyPages)
	}
	if m.Degraded {
		fmt.Printf("degraded        read-only after request %d (%d entries)\n",
			m.DegradedAtRequest, c.DegradedEntries)
	}
}
