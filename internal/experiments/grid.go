package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/replay"
)

// Cell is one (trace, policy, cache size) replay of the evaluation grid.
type Cell struct {
	Trace   string
	Policy  string
	CacheMB int
	M       *replay.Metrics
}

// GridResult holds the full evaluation grid behind Figs. 8-13.
type GridResult struct {
	Cells    []Cell
	Policies []string // plot order
	CacheMBs []int
	Traces   []string
}

// RunGrid replays every trace × policy × cache-size combination once, with
// the instrumentation all the grid figures need. Cells are independent
// simulations (each gets a fresh device and policy over a shared read-only
// trace), so they run through eachCell; results are deterministic and
// ordered regardless of scheduling.
func (r *Runner) RunGrid() (*GridResult, error) {
	g := &GridResult{CacheMBs: r.cfg.CacheSizesMB}
	factories := r.PaperPolicies()
	for _, f := range factories {
		g.Policies = append(g.Policies, f.Name)
	}
	// Generate (and cache) every trace up front: the Runner's trace cache
	// is not synchronized, and workers only read afterwards.
	for _, p := range r.Profiles() {
		g.Traces = append(g.Traces, p.Name)
		if _, err := r.Trace(p.Name); err != nil {
			return nil, err
		}
	}
	type job struct {
		trace   string
		factory int
		cacheMB int
	}
	var jobs []job
	for _, tr := range g.Traces {
		for _, mb := range r.cfg.CacheSizesMB {
			for fi := range factories {
				jobs = append(jobs, job{trace: tr, factory: fi, cacheMB: mb})
			}
		}
	}
	g.Cells = make([]Cell, len(jobs))
	errs := make([]error, len(jobs))
	r.eachCell(len(jobs), func(i int) {
		j, f := jobs[i], factories[jobs[i].factory]
		m, err := r.Replay(j.trace, f, j.cacheMB, replay.Options{
			SeriesInterval: r.cfg.SeriesInterval,
			QueueDepth:     r.cfg.QueueDepth,
		})
		if err != nil {
			errs[i] = fmt.Errorf("grid %s/%s/%dMB: %w", j.trace, f.Name, j.cacheMB, err)
			return
		}
		g.Cells[i] = Cell{Trace: j.trace, Policy: f.Name, CacheMB: j.cacheMB, M: m}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return g, nil
}

// eachCell calls cell(i) for every i in [0, n). The cells are independent
// replays, so one goroutine per core pulls them in index order. Observers
// attached through Config.Observers (telemetry, obs.Progress,
// obs.TraceExport) are single-goroutine state shared by every replay, so
// with any attached the cells run one at a time, in index order, on one
// goroutine: the observers then see the same event stream on every run.
func (r *Runner) eachCell(n int, cell func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if len(r.cfg.Observers) > 0 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				cell(i)
			}
		}()
	}
	wg.Wait()
}

// Find returns the metrics of one cell, or nil.
func (g *GridResult) Find(traceName, policy string, cacheMB int) *replay.Metrics {
	for i := range g.Cells {
		c := &g.Cells[i]
		if c.Trace == traceName && c.Policy == policy && c.CacheMB == cacheMB {
			return c.M
		}
	}
	return nil
}

// Figure8Row is one (trace, cache size) row of normalized response times.
type Figure8Row struct {
	Trace   string
	CacheMB int
	// LRUMeanMs is the absolute LRU mean response in milliseconds (the
	// paper prints these under the X axis).
	LRUMeanMs float64
	// Normalized maps policy → mean response / LRU mean response.
	Normalized map[string]float64
}

// Figure8 derives the normalized I/O response times (Fig. 8).
func (g *GridResult) Figure8() []Figure8Row {
	var rows []Figure8Row
	for _, tr := range g.Traces {
		for _, mb := range g.CacheMBs {
			lru := g.Find(tr, "LRU", mb)
			if lru == nil {
				continue
			}
			base := lru.Response.Mean()
			row := Figure8Row{
				Trace: tr, CacheMB: mb,
				LRUMeanMs:  base / 1e6,
				Normalized: map[string]float64{},
			}
			for _, pol := range g.Policies {
				if m := g.Find(tr, pol, mb); m != nil && base > 0 {
					row.Normalized[pol] = m.Response.Mean() / base
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// RenderFigure8 renders Fig. 8 rows.
func RenderFigure8(rows []Figure8Row, policies []string) string {
	header := append([]string{"Trace", "Cache", "LRU ms"}, policies...)
	var out [][]string
	for _, row := range rows {
		cells := []string{row.Trace, fmt.Sprintf("%dMB", row.CacheMB), fmt.Sprintf("%.2f", row.LRUMeanMs)}
		for _, pol := range policies {
			cells = append(cells, fmt.Sprintf("%.3f", row.Normalized[pol]))
		}
		out = append(out, cells)
	}
	return renderTable("Figure 8: I/O response time normalized to LRU (lower is better)", header, out)
}

// Figure9Row is one (trace, cache size) row of normalized hit ratios.
type Figure9Row struct {
	Trace   string
	CacheMB int
	// ReqBlockHitRatio is the absolute Req-block hit ratio (the paper
	// prints these under the X axis).
	ReqBlockHitRatio float64
	// Normalized maps policy → hit ratio / Req-block hit ratio.
	Normalized map[string]float64
}

// Figure9 derives normalized cache hit ratios (Fig. 9).
func (g *GridResult) Figure9() []Figure9Row {
	var rows []Figure9Row
	for _, tr := range g.Traces {
		for _, mb := range g.CacheMBs {
			rb := g.Find(tr, "Req-block", mb)
			if rb == nil {
				continue
			}
			base := rb.HitRatio()
			row := Figure9Row{
				Trace: tr, CacheMB: mb,
				ReqBlockHitRatio: base,
				Normalized:       map[string]float64{},
			}
			for _, pol := range g.Policies {
				if m := g.Find(tr, pol, mb); m != nil && base > 0 {
					row.Normalized[pol] = m.HitRatio() / base
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// RenderFigure9 renders Fig. 9 rows.
func RenderFigure9(rows []Figure9Row, policies []string) string {
	header := append([]string{"Trace", "Cache", "Req-block hit"}, policies...)
	var out [][]string
	for _, row := range rows {
		cells := []string{row.Trace, fmt.Sprintf("%dMB", row.CacheMB), fmt.Sprintf("%.3f", row.ReqBlockHitRatio)}
		for _, pol := range policies {
			cells = append(cells, fmt.Sprintf("%.3f", row.Normalized[pol]))
		}
		out = append(out, cells)
	}
	return renderTable("Figure 9: cache hit ratio normalized to Req-block (higher is better)", header, out)
}

// Figure10Row is one trace's mean eviction batch size per policy (at the
// middle cache size, as the paper plots one bar per trace).
type Figure10Row struct {
	Trace     string
	CacheMB   int
	MeanPages map[string]float64
}

// Figure10 derives mean pages per eviction (Fig. 10) at the given cache
// size (0 = middle configured size).
func (g *GridResult) Figure10(cacheMB int) []Figure10Row {
	if cacheMB == 0 {
		cacheMB = g.CacheMBs[len(g.CacheMBs)/2]
	}
	var rows []Figure10Row
	for _, tr := range g.Traces {
		row := Figure10Row{Trace: tr, CacheMB: cacheMB, MeanPages: map[string]float64{}}
		for _, pol := range g.Policies {
			if m := g.Find(tr, pol, cacheMB); m != nil {
				row.MeanPages[pol] = m.MeanEvictionPages()
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderFigure10 renders Fig. 10 rows.
func RenderFigure10(rows []Figure10Row, policies []string) string {
	if len(rows) == 0 {
		return ""
	}
	header := append([]string{"Trace"}, policies...)
	var out [][]string
	for _, row := range rows {
		cells := []string{row.Trace}
		for _, pol := range policies {
			cells = append(cells, fmt.Sprintf("%.1f", row.MeanPages[pol]))
		}
		out = append(out, cells)
	}
	return renderTable(fmt.Sprintf("Figure 10: mean pages per eviction (%dMB cache)", rows[0].CacheMB),
		header, out)
}

// Figure11Row is one trace's flash write counts per policy.
type Figure11Row struct {
	Trace   string
	CacheMB int
	Writes  map[string]int64
}

// Figure11 derives flash write counts (Fig. 11) at the given cache size
// (0 = middle configured size).
func (g *GridResult) Figure11(cacheMB int) []Figure11Row {
	if cacheMB == 0 {
		cacheMB = g.CacheMBs[len(g.CacheMBs)/2]
	}
	var rows []Figure11Row
	for _, tr := range g.Traces {
		row := Figure11Row{Trace: tr, CacheMB: cacheMB, Writes: map[string]int64{}}
		for _, pol := range g.Policies {
			if m := g.Find(tr, pol, cacheMB); m != nil {
				row.Writes[pol] = m.Device.FlashWrites
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderFigure11 renders Fig. 11 rows.
func RenderFigure11(rows []Figure11Row, policies []string) string {
	if len(rows) == 0 {
		return ""
	}
	header := append([]string{"Trace"}, policies...)
	var out [][]string
	for _, row := range rows {
		cells := []string{row.Trace}
		for _, pol := range policies {
			cells = append(cells, fmt.Sprint(row.Writes[pol]))
		}
		out = append(out, cells)
	}
	return renderTable(fmt.Sprintf("Figure 11: write count to flash memory (%dMB cache)", rows[0].CacheMB),
		header, out)
}

// Figure12Row is the metadata space overhead of one policy at one cache
// size, averaged across traces.
type Figure12Row struct {
	Policy  string
	CacheMB int
	// MeanKB is the average metadata footprint (node bytes × peak nodes)
	// across traces, in KiB.
	MeanKB float64
	// PercentOfCache is MeanKB relative to the cache size.
	PercentOfCache float64
}

// Figure12 derives the space overhead (Fig. 12).
func (g *GridResult) Figure12() []Figure12Row {
	var rows []Figure12Row
	for _, pol := range g.Policies {
		for _, mb := range g.CacheMBs {
			var sum float64
			var n int
			for _, tr := range g.Traces {
				if m := g.Find(tr, pol, mb); m != nil {
					sum += float64(m.SpaceOverheadBytes())
					n++
				}
			}
			if n == 0 {
				continue
			}
			meanBytes := sum / float64(n)
			rows = append(rows, Figure12Row{
				Policy:         pol,
				CacheMB:        mb,
				MeanKB:         meanBytes / 1024,
				PercentOfCache: meanBytes / float64(mb*1024*1024) * 100,
			})
		}
	}
	return rows
}

// RenderFigure12 renders Fig. 12 rows.
func RenderFigure12(rows []Figure12Row) string {
	var out [][]string
	for _, row := range rows {
		out = append(out, []string{
			row.Policy,
			fmt.Sprintf("%dMB", row.CacheMB),
			fmt.Sprintf("%.1f KB", row.MeanKB),
			fmt.Sprintf("%.2f%%", row.PercentOfCache),
		})
	}
	return renderTable("Figure 12: metadata space overhead (mean across traces)",
		[]string{"Policy", "Cache", "Space", "% of cache"}, out)
}

// Figure13Row is the occupancy time series of Req-block's three lists for
// one trace.
type Figure13Row struct {
	Trace   string
	CacheMB int
	// Series maps list name (IRL/SRL/DRL) → page counts sampled every
	// SeriesInterval requests.
	Series map[string][]float64
	// MeanShare maps list name → its average share of buffered pages.
	MeanShare map[string]float64
}

// Figure13 extracts Req-block's list occupancy series (Fig. 13) at the
// given cache size (0 = middle configured size).
func (g *GridResult) Figure13(cacheMB int) []Figure13Row {
	if cacheMB == 0 {
		cacheMB = g.CacheMBs[len(g.CacheMBs)/2]
	}
	var rows []Figure13Row
	for _, tr := range g.Traces {
		m := g.Find(tr, "Req-block", cacheMB)
		if m == nil || m.ListSeries == nil {
			continue
		}
		row := Figure13Row{Trace: tr, CacheMB: cacheMB, Series: map[string][]float64{}, MeanShare: map[string]float64{}}
		totals := map[string]float64{}
		var grand float64
		for name, s := range m.ListSeries {
			row.Series[name] = s.Samples
			for _, v := range s.Samples {
				totals[name] += v
				grand += v
			}
		}
		for name, t := range totals {
			if grand > 0 {
				row.MeanShare[name] = t / grand
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderFigure13 renders the mean list shares (the series themselves go to
// CSV via cmd/experiments -csv).
func RenderFigure13(rows []Figure13Row) string {
	if len(rows) == 0 {
		return ""
	}
	var out [][]string
	for _, row := range rows {
		out = append(out, []string{
			row.Trace,
			metrics2pct(row.MeanShare["IRL"]),
			metrics2pct(row.MeanShare["SRL"]),
			metrics2pct(row.MeanShare["DRL"]),
			fmt.Sprint(len(row.Series["IRL"])),
			metrics.Sparkline(row.Series["SRL"]),
		})
	}
	return renderTable(fmt.Sprintf("Figure 13: mean share of cached pages per Req-block list (%dMB cache)", rows[0].CacheMB),
		[]string{"Trace", "IRL", "SRL", "DRL", "Samples", "SRL trend"}, out)
}

func metrics2pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
