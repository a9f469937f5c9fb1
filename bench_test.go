package repro

// One benchmark per table and figure of the paper, plus the ablation
// benches DESIGN.md calls out and micro-benchmarks of the policies and the
// flash substrate. The table/figure benches run their experiment at a
// reduced scale per iteration and report the headline number as a custom
// metric, so `go test -bench .` both times the harness and regenerates the
// paper's quantities. cmd/experiments produces the full-scale tables
// recorded in EXPERIMENTS.md.

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/mrc"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchConfig keeps per-iteration work around a second.
func benchConfig(traces ...string) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = 0.05
	cfg.SeriesInterval = 500 // traces are short at this scale
	if len(traces) > 0 {
		cfg.Traces = traces
	}
	return cfg
}

// --- Table benches ---------------------------------------------------------

// BenchmarkTable2TraceStats regenerates Table 2's statistics.
func BenchmarkTable2TraceStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig())
		rows, err := r.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, row := range rows {
				if row.Trace == "src1_2" {
					b.ReportMetric(row.FrequentRatio, "src1_2-freqR")
				}
			}
		}
	}
}

// --- Figure benches --------------------------------------------------------

// BenchmarkFigure2InsertHitCDF regenerates the motivation CDFs.
func BenchmarkFigure2InsertHitCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig("src1_2", "proj_0"))
		res, err := r.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 && len(res) > 0 {
			b.ReportMetric(res[0].SmallHitShare, "small-hit-share")
			b.ReportMetric(res[0].SmallInsertShare, "small-insert-share")
		}
	}
}

// BenchmarkFigure3LargeRequestHits regenerates the large-request hit stats.
func BenchmarkFigure3LargeRequestHits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig("src1_2", "proj_0"))
		res, err := r.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 && len(res) > 0 {
			b.ReportMetric(res[0].LargeHitFraction, "large-hit-frac")
		}
	}
}

// BenchmarkFigure7DeltaSensitivity sweeps δ on one trace.
func BenchmarkFigure7DeltaSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig("src1_2"))
		rows, err := r.Figure7([]int{1, 3, 5, 7})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 && len(rows) > 0 {
			b.ReportMetric(rows[0].HitRatioNorm[2], "delta5-vs-delta1-hit")
		}
	}
}

// fig8GridConfig is the bench-scale evaluation grid: three traces at
// scale 0.05 with 16 and 32 MB caches. TestFigure8RatioPinned pins its
// Fig. 8 ratio.
func fig8GridConfig() experiments.Config {
	cfg := benchConfig("src1_2", "ts_0", "proj_0")
	cfg.CacheSizesMB = []int{16, 32}
	return cfg
}

// reqBlockRespVsLRU is the paper's headline number: Req-block's response
// time normalized to LRU, averaged over the grid's Fig. 8 rows.
func reqBlockRespVsLRU(g *experiments.GridResult) float64 {
	var sum float64
	var n int
	for _, row := range g.Figure8() {
		sum += row.Normalized["Req-block"]
		n++
	}
	return sum / float64(n)
}

// gridBench runs the evaluation grid once per iteration and hands the
// result to report on the final iteration.
func gridBench(b *testing.B, report func(*experiments.GridResult)) {
	b.Helper()
	cfg := fig8GridConfig()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(cfg)
		g, err := r.RunGrid()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			report(g)
		}
	}
}

// BenchmarkFigure8ResponseTime regenerates the normalized response times.
func BenchmarkFigure8ResponseTime(b *testing.B) {
	gridBench(b, func(g *experiments.GridResult) {
		b.ReportMetric(reqBlockRespVsLRU(g), "reqblock-resp-vs-LRU")
	})
}

// BenchmarkFigure8ResponseTimeTelemetry reruns the Fig. 8 grid with the
// full telemetry plane attached — instrument observer, flash timing tap,
// an actively sampling 1/1024 trace export and a progress reporter — so the
// delta against BenchmarkFigure8ResponseTime is the telemetry cost on
// the acceptance workload (the issue's bar: ≤ 5% with sampling on).
func BenchmarkFigure8ResponseTimeTelemetry(b *testing.B) {
	cfg := fig8GridConfig()
	tel := obs.New()
	cfg.Tap = tel
	cfg.Observers = []sim.Observer{
		tel.Observer(),
		obs.NewTraceExport(io.Discard, 1024, 1),
		obs.NewProgress(io.Discard, 0),
	}
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(cfg)
		g, err := r.RunGrid()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(reqBlockRespVsLRU(g), "reqblock-resp-vs-LRU")
		}
	}
}

// BenchmarkFigure9HitRatio regenerates the normalized hit ratios.
func BenchmarkFigure9HitRatio(b *testing.B) {
	gridBench(b, func(g *experiments.GridResult) {
		var sum float64
		var n int
		for _, row := range g.Figure9() {
			sum += row.Normalized["LRU"]
			n++
		}
		b.ReportMetric(sum/float64(n), "LRU-hit-vs-reqblock")
	})
}

// BenchmarkFigure10BatchEviction regenerates mean pages per eviction.
func BenchmarkFigure10BatchEviction(b *testing.B) {
	gridBench(b, func(g *experiments.GridResult) {
		rows := g.Figure10(16)
		if len(rows) > 0 {
			b.ReportMetric(rows[0].MeanPages["Req-block"], "reqblock-pages-per-evict")
			b.ReportMetric(rows[0].MeanPages["BPLRU"], "bplru-pages-per-evict")
		}
	})
}

// BenchmarkFigure11FlashWrites regenerates the flash write counts.
func BenchmarkFigure11FlashWrites(b *testing.B) {
	gridBench(b, func(g *experiments.GridResult) {
		var lru, rb int64
		for _, row := range g.Figure11(16) {
			lru += row.Writes["LRU"]
			rb += row.Writes["Req-block"]
		}
		if lru > 0 {
			b.ReportMetric(float64(rb)/float64(lru), "reqblock-writes-vs-LRU")
		}
	})
}

// BenchmarkFigure12SpaceOverhead regenerates the metadata space overhead.
func BenchmarkFigure12SpaceOverhead(b *testing.B) {
	gridBench(b, func(g *experiments.GridResult) {
		for _, row := range g.Figure12() {
			if row.Policy == "Req-block" && row.CacheMB == 16 {
				b.ReportMetric(row.MeanKB, "reqblock-16MB-KB")
			}
		}
	})
}

// BenchmarkFigure13ListOccupancy regenerates the list occupancy shares.
func BenchmarkFigure13ListOccupancy(b *testing.B) {
	gridBench(b, func(g *experiments.GridResult) {
		rows := g.Figure13(16)
		if len(rows) > 0 {
			b.ReportMetric(rows[0].MeanShare["DRL"], "drl-share")
			b.ReportMetric(rows[0].MeanShare["SRL"], "srl-share")
		}
	})
}

// --- Ablation benches (design decisions in DESIGN.md) ----------------------

// replayOnce runs one (policy, trace) replay and returns its metrics.
func replayOnce(b *testing.B, pol cache.Policy, profile workload.Profile) *replay.Metrics {
	b.Helper()
	tr := workload.MustGenerate(profile, workload.Options{Scale: 0.05})
	dev, err := ssd.New(ssd.ScaledParams(16))
	if err != nil {
		b.Fatal(err)
	}
	m, err := replay.Run(tr, pol, dev, replay.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkAblationMerge compares Req-block with and without downgraded
// merging (Fig. 6's mechanism).
func BenchmarkAblationMerge(b *testing.B) {
	for _, merge := range []bool{true, false} {
		name := "merge-on"
		if !merge {
			name = "merge-off"
		}
		b.Run(name, func(b *testing.B) {
			var last *replay.Metrics
			for i := 0; i < b.N; i++ {
				pol := core.NewConfig(16*256, core.Config{Delta: 5, Merge: merge, Recency: true})
				last = replayOnce(b, pol, workload.SRC12())
			}
			b.ReportMetric(last.MeanEvictionPages(), "pages-per-evict")
			b.ReportMetric(last.Response.Mean()/1e6, "mean-resp-ms")
		})
	}
}

// BenchmarkAblationRecency compares Eq. 1 with and without its
// (Tcur − Tinsert) aging term.
func BenchmarkAblationRecency(b *testing.B) {
	for _, recency := range []bool{true, false} {
		name := "recency-on"
		if !recency {
			name = "recency-off"
		}
		b.Run(name, func(b *testing.B) {
			var last *replay.Metrics
			for i := 0; i < b.N; i++ {
				pol := core.NewConfig(16*256, core.Config{Delta: 5, Merge: true, Recency: recency})
				last = replayOnce(b, pol, workload.PROJ0())
			}
			b.ReportMetric(last.HitRatio(), "hit-ratio")
		})
	}
}

// BenchmarkAblationBPLRUPadding quantifies what BPLRU's page padding costs
// on a page-level FTL (the reason the paper's comparison ran without it).
// On the Table 2 workloads padding turns out to be nearly free — victims
// are full blocks, because LRU compensation preferentially evicts completed
// sequential blocks and the hot regions densely populate theirs — so this
// ablation uses scattered random writes, where victim blocks are sparse and
// padding multiplies the flash traffic.
func BenchmarkAblationBPLRUPadding(b *testing.B) {
	pagesPerBlock := ssd.ScaledParams(16).Flash.PagesPerBlock
	// 6000 single-page writes scattered over 100k pages: ~1 resident page
	// per 64-page block at eviction time.
	sparse := &trace.Trace{Name: "sparse"}
	rng := newSplitMix(11)
	for i := 0; i < 6000; i++ {
		sparse.Requests = append(sparse.Requests, trace.Request{
			Time:   int64(i) * 1_000_000,
			Write:  true,
			Offset: int64(rng.next()%100_000) * 4096,
			Size:   4096,
		})
	}
	for _, padding := range []bool{false, true} {
		name := "padding-off"
		if padding {
			name = "padding-on"
		}
		b.Run(name, func(b *testing.B) {
			var last *replay.Metrics
			for i := 0; i < b.N; i++ {
				var pol cache.Policy
				if padding {
					pol = cache.NewBPLRUWithPadding(16*256, pagesPerBlock)
				} else {
					pol = cache.NewBPLRU(16*256, pagesPerBlock)
				}
				dev, err := ssd.New(ssd.ScaledParams(16))
				if err != nil {
					b.Fatal(err)
				}
				last, err = replay.Run(sparse, pol, dev, replay.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(last.Device.FlashWrites), "flash-writes")
			b.ReportMetric(float64(last.Device.FlashReads), "pad-reads")
		})
	}
}

// BenchmarkAblationFlushStriping isolates the channel-striping effect: the
// same 64-page batch flushed striped vs block-bound.
func BenchmarkAblationFlushStriping(b *testing.B) {
	lpns := make([]int64, 64)
	for i := range lpns {
		lpns[i] = int64(i)
	}
	b.Run("striped", func(b *testing.B) {
		var bt ftl.BatchTiming
		for i := 0; i < b.N; i++ {
			dev, err := ssd.New(ssd.ScaledParams(64))
			if err != nil {
				b.Fatal(err)
			}
			bt, err = dev.FlushStriped(0, lpns)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(bt.Transferred)/1e6, "block-ms")
		b.ReportMetric(float64(bt.Durable)/1e6, "durable-ms")
	})
	b.Run("block-bound", func(b *testing.B) {
		var bt ftl.BatchTiming
		for i := 0; i < b.N; i++ {
			dev, err := ssd.New(ssd.ScaledParams(64))
			if err != nil {
				b.Fatal(err)
			}
			bt, err = dev.FlushBlockBound(0, lpns)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(bt.Transferred)/1e6, "block-ms")
		b.ReportMetric(float64(bt.Durable)/1e6, "durable-ms")
	})
}

// BenchmarkAblationWearLeveling compares the wear spread with and without
// dynamic wear leveling under a hot-spot overwrite workload.
func BenchmarkAblationWearLeveling(b *testing.B) {
	// A small geometry where block recycling is visible: 2 channels × 2
	// chips × 8 blocks × 4 pages, hammering four pages.
	p := flash.DefaultParams()
	p.Channels = 2
	p.ChipsPerChannel = 2
	p.BlocksPerPlane = 8
	p.PagesPerBlock = 4
	p.OverProvision = 0.25
	p.GCThreshold = 0.25
	lpns := make([]int64, 4)
	for i := range lpns {
		lpns[i] = int64(i)
	}
	for _, wl := range []bool{true, false} {
		name := "leveling-on"
		if !wl {
			name = "leveling-off"
		}
		b.Run(name, func(b *testing.B) {
			var spread int
			for i := 0; i < b.N; i++ {
				f, err := ftl.NewConfig(p, wl)
				if err != nil {
					b.Fatal(err)
				}
				for round := 0; round < 2000; round++ {
					if _, err := f.WriteStriped(int64(round)*1000, lpns); err != nil {
						b.Fatal(err)
					}
				}
				w := f.Array().WearStats()
				spread = w.MaxErase - w.MinErase
			}
			b.ReportMetric(float64(spread), "erase-spread")
		})
	}
}

// BenchmarkEnduranceExtension regenerates the endurance extension table's
// headline: write amplification per policy on a nearly full device.
func BenchmarkEnduranceExtension(b *testing.B) {
	cfg := benchConfig("proj_0")
	cfg.CacheSizesMB = []int{16}
	cfg.DevicePrecondition = 0.95
	cfg.DeviceDivisor = 64
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(cfg)
		g, err := r.RunGrid()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			rows := g.EnduranceTable(16)
			if len(rows) > 0 {
				b.ReportMetric(rows[0].WriteAmp["Req-block"], "reqblock-WA")
				b.ReportMetric(rows[0].WriteAmp["LRU"], "lru-WA")
			}
		}
	}
}

// BenchmarkAblationAdaptiveDelta compares fixed δ=5 against the online
// hill-climbing controller (extension).
func BenchmarkAblationAdaptiveDelta(b *testing.B) {
	run := func(b *testing.B, mk func() cache.Policy) float64 {
		var last *replay.Metrics
		for i := 0; i < b.N; i++ {
			last = replayOnce(b, mk(), workload.SRC12())
		}
		return last.HitRatio()
	}
	b.Run("fixed-delta5", func(b *testing.B) {
		hr := run(b, func() cache.Policy { return core.New(16 * 256) })
		b.ReportMetric(hr, "hit-ratio")
	})
	b.Run("adaptive", func(b *testing.B) {
		hr := run(b, func() cache.Policy { return core.NewAdaptive(16*256, 0) })
		b.ReportMetric(hr, "hit-ratio")
	})
}

// BenchmarkAblationIdleFlush compares request-path-only eviction against
// Co-Active-style idle draining (extension).
func BenchmarkAblationIdleFlush(b *testing.B) {
	for _, idleNs := range []int64{0, 500_000} {
		name := "idle-off"
		if idleNs > 0 {
			name = "idle-on"
		}
		b.Run(name, func(b *testing.B) {
			var last *replay.Metrics
			tr := workload.MustGenerate(workload.SRC12(), workload.Options{Scale: 0.05})
			for i := 0; i < b.N; i++ {
				dev, err := ssd.New(ssd.ScaledParams(16))
				if err != nil {
					b.Fatal(err)
				}
				last, err = replay.Run(tr, core.New(16*256), dev, replay.Options{IdleFlushNs: idleNs})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.WriteResponse.Mean()/1e6, "write-resp-ms")
			b.ReportMetric(last.HitRatio(), "hit-ratio")
			b.ReportMetric(float64(last.IdleFlushedPages), "idle-pages")
		})
	}
}

// BenchmarkAblationReadAhead measures the readahead read-cache extension
// on the read-dominated hm_1 workload.
func BenchmarkAblationReadAhead(b *testing.B) {
	for _, ra := range []bool{false, true} {
		name := "readahead-off"
		if ra {
			name = "readahead-on"
		}
		b.Run(name, func(b *testing.B) {
			var last *replay.Metrics
			tr := workload.MustGenerate(workload.HM1(), workload.Options{Scale: 0.05})
			for i := 0; i < b.N; i++ {
				dev, err := ssd.New(ssd.ScaledParams(16))
				if err != nil {
					b.Fatal(err)
				}
				var pol cache.Policy = core.New(16 * 256)
				if ra {
					pol = cache.NewReadAhead(pol, 4*256, 8) // 4 MB read region
				}
				last, err = replay.Run(tr, pol, dev, replay.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.HitRatio(), "hit-ratio")
			b.ReportMetric(last.ReadResponse.Mean()/1e6, "read-resp-ms")
			b.ReportMetric(float64(last.PrefetchedPages), "prefetched")
		})
	}
}

// BenchmarkAblationBypass compares Req-block against blunt large-write
// admission control (Observation 2 taken literally).
func BenchmarkAblationBypass(b *testing.B) {
	for _, bypass := range []bool{false, true} {
		name := "admit-all"
		if bypass {
			name = "bypass-large"
		}
		b.Run(name, func(b *testing.B) {
			var last *replay.Metrics
			tr := workload.MustGenerate(workload.PROJ0(), workload.Options{Scale: 0.05})
			for i := 0; i < b.N; i++ {
				dev, err := ssd.New(ssd.ScaledParams(16))
				if err != nil {
					b.Fatal(err)
				}
				var pol cache.Policy = cache.NewLRU(16 * 256)
				if bypass {
					pol = cache.NewBypass(cache.NewLRU(16*256), 8)
				}
				last, err = replay.Run(tr, pol, dev, replay.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.HitRatio(), "hit-ratio")
			b.ReportMetric(last.Response.Mean()/1e6, "mean-resp-ms")
			b.ReportMetric(float64(last.BypassedPages), "bypassed")
		})
	}
}

// BenchmarkAblationGCSeparation measures the FTL's hot/cold stream
// separation: keeping GC survivors out of host-write blocks cuts write
// amplification on skewed workloads.
func BenchmarkAblationGCSeparation(b *testing.B) {
	p := flash.DefaultParams()
	p.Channels = 2
	p.ChipsPerChannel = 2
	p.BlocksPerPlane = 16
	p.PagesPerBlock = 8
	p.OverProvision = 0.2
	p.GCThreshold = 0.25
	for _, sep := range []bool{true, false} {
		name := "separation-on"
		if !sep {
			name = "separation-off"
		}
		b.Run(name, func(b *testing.B) {
			var wa float64
			for i := 0; i < b.N; i++ {
				f, err := ftl.NewConfigFull(p, true, sep)
				if err != nil {
					b.Fatal(err)
				}
				if err := f.Precondition(0.9); err != nil {
					b.Fatal(err)
				}
				logical := f.LogicalPages()
				rng := newSplitMix(42)
				hot := logical / 10
				for j := 0; j < 6000; j++ {
					var lpn int64
					if rng.next()%10 < 8 {
						lpn = int64(rng.next() % uint64(hot))
					} else {
						lpn = hot + int64(rng.next()%uint64(logical-hot))
					}
					if _, err := f.WriteStriped(int64(j)*1000, []int64{lpn}); err != nil {
						b.Fatal(err)
					}
				}
				st := f.Stats()
				wa = float64(st.HostPrograms+st.GCMigrations) / float64(st.HostPrograms)
			}
			b.ReportMetric(wa, "write-amp")
		})
	}
}

// BenchmarkMRCCompute measures the Mattson stack algorithm.
func BenchmarkMRCCompute(b *testing.B) {
	tr := workload.MustGenerate(workload.USR0(), workload.Options{Scale: 0.05})
	var accesses int64
	for _, r := range tr.Requests {
		_, n := r.PageSpan(4096)
		accesses += int64(n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := mrc.Compute(tr, mrc.Options{WriteBuffer: true})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(c.HitRatio(16*256), "hit@16MB")
		}
	}
	b.ReportMetric(float64(accesses*int64(b.N))/b.Elapsed().Seconds(), "accesses/s")
}

// --- Micro-benchmarks -------------------------------------------------------

// benchPolicyAccess measures raw policy throughput on a mixed request
// stream (pages per second of simulated cache work).
func benchPolicyAccess(b *testing.B, mk func() cache.Policy) {
	// A fixed request stream exercising hits, misses and evictions.
	reqs := make([]cache.Request, 4096)
	rng := newSplitMix(42)
	for i := range reqs {
		reqs[i] = cache.Request{
			Time:  int64(i) * 1000,
			Write: rng.next()%10 < 7,
			LPN:   int64(rng.next() % 20000),
			Pages: 1 + int(rng.next()%12),
		}
	}
	b.ResetTimer()
	pol := mk()
	var pages int64
	for i := 0; i < b.N; i++ {
		req := reqs[i%len(reqs)]
		req.Time = int64(i) * 1000
		pol.Access(req)
		pages += int64(req.Pages)
	}
	b.ReportMetric(float64(pages)/b.Elapsed().Seconds(), "pages/s")
}

// splitMix is a tiny deterministic RNG for benchmark inputs.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func BenchmarkPolicyLRU(b *testing.B) {
	benchPolicyAccess(b, func() cache.Policy { return cache.NewLRU(4096) })
}

func BenchmarkPolicyLFU(b *testing.B) {
	benchPolicyAccess(b, func() cache.Policy { return cache.NewLFU(4096) })
}

func BenchmarkPolicyCFLRU(b *testing.B) {
	benchPolicyAccess(b, func() cache.Policy { return cache.NewCFLRU(4096) })
}

func BenchmarkPolicyBPLRU(b *testing.B) {
	benchPolicyAccess(b, func() cache.Policy { return cache.NewBPLRU(4096, 64) })
}

func BenchmarkPolicyFAB(b *testing.B) {
	benchPolicyAccess(b, func() cache.Policy { return cache.NewFAB(4096, 64) })
}

func BenchmarkPolicyPUDLRU(b *testing.B) {
	benchPolicyAccess(b, func() cache.Policy { return cache.NewPUDLRU(4096, 64) })
}

func BenchmarkPolicyECR(b *testing.B) {
	benchPolicyAccess(b, func() cache.Policy { return cache.NewECR(4096, 8) })
}

func BenchmarkPolicyReadAhead(b *testing.B) {
	benchPolicyAccess(b, func() cache.Policy { return cache.NewReadAhead(cache.NewLRU(4096), 1024, 8) })
}

func BenchmarkPolicyVBBMS(b *testing.B) {
	benchPolicyAccess(b, func() cache.Policy { return cache.NewVBBMS(4096) })
}

func BenchmarkPolicyReqBlock(b *testing.B) {
	benchPolicyAccess(b, func() cache.Policy { return core.New(4096) })
}

// BenchmarkFTLWriteStriped measures the FTL write path including GC.
func BenchmarkFTLWriteStriped(b *testing.B) {
	p := flash.ScaledParams(256)
	dev, err := ssd.New(ssd.Params{Flash: p, DRAMAccess: 1000, Precondition: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	logical := dev.LogicalPages()
	rng := newSplitMix(7)
	batch := make([]int64, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := int64(rng.next() % uint64(logical-8))
		for j := range batch {
			batch[j] = base + int64(j)
		}
		if _, err := dev.FlushStriped(int64(i)*1000, batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(8*b.N)/b.Elapsed().Seconds(), "pages/s")
}

// BenchmarkTraceGeneration measures the synthetic workload generator.
func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := workload.MustGenerate(workload.PROJ0(), workload.Options{Scale: 0.02})
		if tr.Len() == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkMSRParse measures the trace parser.
func BenchmarkMSRParse(b *testing.B) {
	tr := workload.MustGenerate(workload.TS0(), workload.Options{Scale: 0.02})
	var buf bytes.Buffer
	if err := trace.WriteMSR(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadMSR(bytes.NewReader(data), "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMSRScan measures the streaming parser over the same bytes as
// BenchmarkMSRParse, without materializing the requests.
func BenchmarkMSRScan(b *testing.B) {
	tr := workload.MustGenerate(workload.TS0(), workload.Options{Scale: 0.02})
	var buf bytes.Buffer
	if err := trace.WriteMSR(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := trace.Scan(bytes.NewReader(data), "bench")
		n := 0
		for {
			if _, ok := sc.Next(); !ok {
				break
			}
			n++
		}
		if err := sc.Err(); err != nil {
			b.Fatal(err)
		}
		if n != tr.Len() {
			b.Fatalf("scanned %d of %d", n, tr.Len())
		}
	}
}

// BenchmarkStreamingReplay times the constant-memory replay path end to
// end: parse an MSR stream and drive it through the sim engine without
// ever materializing the trace. The engine is the same one behind
// replay.Run, so ns/op tracks the classic path; memory stays O(cache)
// regardless of trace length.
func BenchmarkStreamingReplay(b *testing.B) {
	tr := workload.MustGenerate(workload.SRC12(), workload.Options{Scale: 0.05})
	var buf bytes.Buffer
	if err := trace.WriteMSR(&buf, tr); err != nil {
		b.Fatal(err)
	}
	text := buf.Bytes()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev, err := ssd.New(ssd.ScaledParams(16))
		if err != nil {
			b.Fatal(err)
		}
		pol := core.New(16 * 256)
		m, err := replay.RunSource(trace.Scan(bytes.NewReader(text), "src1_2"), pol, dev, replay.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(m.HitRatio(), "hit-ratio")
		}
	}
}

// shardedBenchTrace builds the multi-tenant benchmark workload: tenants
// round-robin single-block writes scattered across their own wide regions,
// so every tenant churns its shard's cache and block-level policies keep a
// large victim-search population.
func shardedBenchTrace(tenants, n int) (*trace.Trace, []int64) {
	const regionPages = 1 << 13 // 32 MiB of logical space per tenant
	const footprint = 1 << 13   // pages each tenant actually touches
	boundaries := make([]int64, tenants)
	for t := range boundaries {
		boundaries[t] = int64(t+1) * regionPages
	}
	tr := &trace.Trace{Name: "multitenant"}
	rng := newSplitMix(99)
	for i := 0; i < n; i++ {
		tenant := i % tenants
		page := int64(tenant)*regionPages + int64(rng.next()%footprint)
		tr.Requests = append(tr.Requests, trace.Request{
			Time:   int64(i) * 200_000,
			Write:  true,
			Offset: page * 4096,
			Size:   4 * 4096,
		})
	}
	return tr, boundaries
}

// BenchmarkShardedReplay sweeps the sharded engine over shard counts and
// sharing modes on the multi-tenant workload, with FAB. EQUAL
// partitioning shrinks each shard's victim heap by N; on multi-core hosts
// the shard goroutines add parallel speedup on top. The speedup over one
// shard is the ratio of the pages/s metrics; no baseline is checked in.
func BenchmarkShardedReplay(b *testing.B) {
	const tenants = 8
	const totalCapacity = 32 * 1024 // pages
	tr, boundaries := shardedBenchTrace(tenants, 24_000)
	var pages int64
	for _, r := range tr.Requests {
		_, n := r.PageSpan(4096)
		pages += int64(n)
	}
	params := ssd.DefaultParams()
	params.Flash.BlocksPerPlane = 512
	params.Flash.PagesPerBlock = 16
	params.Precondition = 0
	pagesPerBlock := params.Flash.PagesPerBlock

	for _, mode := range []sim.SharingMode{sim.SharingEqual, sim.SharingShared} {
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/shards=%d", mode, shards), func(b *testing.B) {
				var m *replay.Metrics
				for i := 0; i < b.N; i++ {
					spec := replay.ShardSpec{
						Shards:             shards,
						Sharing:            mode,
						TotalCapacityPages: totalCapacity,
						NewPolicy: func(_, capPages int) cache.Policy {
							return cache.NewFAB(capPages, pagesPerBlock)
						},
						NewDevice: func(int) (*ssd.Device, error) { return ssd.New(params) },
					}
					opts := replay.Options{TenantBoundaries: boundaries}
					var err error
					m, err = replay.RunSharded(tr.Source(), spec, opts)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(pages*int64(b.N))/b.Elapsed().Seconds(), "pages/s")
				b.ReportMetric(m.HitRatio(), "hit-ratio")
			})
		}
	}
}

// BenchmarkStreamingReplayTelemetry is BenchmarkStreamingReplay with the
// full telemetry plane attached — histogram/counter observer, flash
// timing tap, an actively sampling trace export (also the policy's
// list-transition sink) and a progress reporter — so the delta between
// the two benches is the telemetry overhead docs/PERFORMANCE.md records.
// Allocations must stay at the baseline: the instruments are atomics and
// the trace writer is buffered.
func BenchmarkStreamingReplayTelemetry(b *testing.B) {
	tr := workload.MustGenerate(workload.SRC12(), workload.Options{Scale: 0.05})
	var buf bytes.Buffer
	if err := trace.WriteMSR(&buf, tr); err != nil {
		b.Fatal(err)
	}
	text := buf.Bytes()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev, err := ssd.New(ssd.ScaledParams(16))
		if err != nil {
			b.Fatal(err)
		}
		tel := obs.New()
		dev.SetTap(tel)
		exp := obs.NewTraceExport(io.Discard, 1024, 1)
		progress := obs.NewProgress(io.Discard, 0)
		pol := core.New(16 * 256)
		pol.SetTransitionSink(exp)
		opts := replay.Options{Observers: []sim.Observer{tel.Observer(), exp, progress}}
		m, err := replay.RunSource(trace.Scan(bytes.NewReader(text), "src1_2"), pol, dev, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(m.HitRatio(), "hit-ratio")
		}
	}
}
