package experiments

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/replay"
)

// Figure7Row is one trace's δ sensitivity: hit ratio and response time per
// δ, normalized to δ = 1, with a 32 MB cache (§4.2.1).
type Figure7Row struct {
	Trace string
	// Deltas are the evaluated δ values.
	Deltas []int
	// HitRatioNorm[i] is hit ratio at Deltas[i] / hit ratio at δ=1.
	HitRatioNorm []float64
	// ResponseNorm[i] is mean response at Deltas[i] / response at δ=1.
	ResponseNorm []float64
}

// Figure7 sweeps Req-block's δ parameter (1..8 by default) with a 32 MB
// cache and reports results normalized to δ=1, as the paper does. The
// (trace, δ) cells are independent replays and run through eachCell.
func (r *Runner) Figure7(deltas []int) ([]Figure7Row, error) {
	if len(deltas) == 0 {
		deltas = []int{1, 2, 3, 4, 5, 6, 7, 8}
	}
	const cacheMB = 32
	profiles := r.Profiles()
	// Pre-generate traces: the Runner cache is not synchronized.
	for _, p := range profiles {
		if _, err := r.Trace(p.Name); err != nil {
			return nil, err
		}
	}
	type cell struct {
		hit, resp float64
		err       error
	}
	cells := make([][]cell, len(profiles))
	for pi := range cells {
		cells[pi] = make([]cell, len(deltas))
	}
	r.eachCell(len(profiles)*len(deltas), func(i int) {
		pi, di := i/len(deltas), i%len(deltas)
		name, delta := profiles[pi].Name, deltas[di]
		f := cache.Factory{Name: "Req-block", New: func(c int) cache.Policy {
			return core.NewConfig(c, core.Config{Delta: delta, Merge: true, Recency: true})
		}}
		m, err := r.Replay(name, f, cacheMB, replay.Options{})
		if err != nil {
			cells[pi][di].err = fmt.Errorf("figure7 %s δ=%d: %w", name, delta, err)
			return
		}
		cells[pi][di] = cell{hit: m.HitRatio(), resp: m.Response.Mean()}
	})
	var out []Figure7Row
	for pi, p := range profiles {
		row := Figure7Row{Trace: p.Name, Deltas: deltas}
		baseHit, baseResp := cells[pi][0].hit, cells[pi][0].resp
		for _, c := range cells[pi] {
			if c.err != nil {
				return nil, c.err
			}
			if baseHit > 0 {
				row.HitRatioNorm = append(row.HitRatioNorm, c.hit/baseHit)
			} else {
				row.HitRatioNorm = append(row.HitRatioNorm, 0)
			}
			if baseResp > 0 {
				row.ResponseNorm = append(row.ResponseNorm, c.resp/baseResp)
			} else {
				row.ResponseNorm = append(row.ResponseNorm, 0)
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// BestDelta returns the δ with the highest hit ratio (ties → smaller δ,
// cheaper metadata).
func (r Figure7Row) BestDelta() int {
	best, bestHit := r.Deltas[0], r.HitRatioNorm[0]
	for i, d := range r.Deltas {
		if r.HitRatioNorm[i] > bestHit {
			best, bestHit = d, r.HitRatioNorm[i]
		}
	}
	return best
}

// RenderFigure7 renders the δ sweep.
func RenderFigure7(rows []Figure7Row) string {
	if len(rows) == 0 {
		return ""
	}
	header := []string{"Trace", "Metric"}
	for _, d := range rows[0].Deltas {
		header = append(header, fmt.Sprintf("δ=%d", d))
	}
	header = append(header, "best δ")
	var out [][]string
	for _, row := range rows {
		hit := []string{row.Trace, "hit ratio"}
		resp := []string{row.Trace, "resp time"}
		for i := range row.Deltas {
			hit = append(hit, fmt.Sprintf("%.3f", row.HitRatioNorm[i]))
			resp = append(resp, fmt.Sprintf("%.3f", row.ResponseNorm[i]))
		}
		hit = append(hit, fmt.Sprintf("%d", row.BestDelta()))
		resp = append(resp, "")
		out = append(out, hit, resp)
	}
	return renderTable("Figure 7: δ sensitivity with 32MB cache (normalized to δ=1)", header, out)
}
