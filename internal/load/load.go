// Package load is the open-loop workload generator for the service
// front-end: arrivals fire on their own schedule — Poisson or bursty —
// regardless of how many requests are still outstanding, which is what
// exposes saturation behavior (a closed loop self-throttles and hides
// it). Latency is measured from the *scheduled* arrival, not the actual
// send, so dispatcher lateness counts against the service rather than
// being silently omitted (coordinated omission).
//
// The generator drives any Submitter — the in-process serve.Server or a
// remote ssdserve via serve.Client — and reports client-side P50/P99/
// P99.9 with goodput per ramp step.
package load

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
)

// Submitter is the request sink; serve.Server and serve.Client both
// implement it.
type Submitter interface {
	Submit(op serve.Op) (serve.Response, error)
}

// Profile shapes the offered load.
type Profile struct {
	// Arrival selects the process: "poisson" (exponential gaps) or
	// "burst" (back-to-back trains of BurstLen separated by idle gaps;
	// the train cadence preserves the mean rate).
	Arrival string
	// RatePerSec is the mean arrival rate in ops/sec at multiplier 1.
	RatePerSec float64
	// BurstLen is the ops per train for Arrival "burst" (default 32).
	BurstLen int
	// Tenants spreads ops across N disjoint LPN regions (default 1).
	Tenants int
	// RegionPages is each tenant's LPN region size (default 4096).
	RegionPages int64
	// ReadFraction in [0,1] is the probability an op is a read.
	ReadFraction float64
	// Pages per op (default 4).
	Pages int
	// DeadlineNs per op; zero uses the server default.
	DeadlineNs int64
	// StepNs is the wall-clock duration of each ramp step.
	StepNs int64
	// Ramp lists the rate multipliers, one step each; nil means a single
	// step at 1.0. A ramp crossing 1.0 upward is the saturation sweep.
	Ramp []float64
	// Seed makes the arrival schedule and op mix reproducible.
	Seed int64
	// MaxOutstanding caps concurrently in-flight ops as a safety valve
	// (default 4096); arrivals past it are counted as Skipped, not sent.
	MaxOutstanding int
}

// withDefaults fills the zero values.
func (p Profile) withDefaults() (Profile, error) {
	if p.Arrival == "" {
		p.Arrival = "poisson"
	}
	if p.Arrival != "poisson" && p.Arrival != "burst" {
		return p, fmt.Errorf("load: unknown arrival process %q", p.Arrival)
	}
	if p.RatePerSec <= 0 {
		return p, fmt.Errorf("load: rate %v must be > 0", p.RatePerSec)
	}
	if p.StepNs <= 0 {
		return p, fmt.Errorf("load: step duration %d must be > 0", p.StepNs)
	}
	if p.ReadFraction < 0 || p.ReadFraction > 1 {
		return p, fmt.Errorf("load: read fraction %v outside [0,1]", p.ReadFraction)
	}
	if p.BurstLen <= 0 {
		p.BurstLen = 32
	}
	if p.Tenants <= 0 {
		p.Tenants = 1
	}
	if p.RegionPages <= 0 {
		p.RegionPages = 4096
	}
	if p.Pages <= 0 {
		p.Pages = 4
	}
	if int64(p.Pages) > p.RegionPages {
		return p, fmt.Errorf("load: %d pages per op exceeds the %d-page tenant region", p.Pages, p.RegionPages)
	}
	if p.MaxOutstanding <= 0 {
		p.MaxOutstanding = 4096
	}
	if len(p.Ramp) == 0 {
		p.Ramp = []float64{1}
	}
	for _, m := range p.Ramp {
		if m <= 0 {
			return p, fmt.Errorf("load: ramp multiplier %v must be > 0", m)
		}
	}
	return p, nil
}

// StepResult is one ramp step's client-side view.
type StepResult struct {
	Multiplier float64 `json:"multiplier"`
	TargetRate float64 `json:"target_rate"` // ops/sec offered
	ElapsedNs  int64   `json:"elapsed_ns"`

	Sent    int64 `json:"sent"`
	Skipped int64 `json:"skipped"` // over the outstanding cap, never sent

	OK       int64 `json:"ok"`
	Shed     int64 `json:"shed"`
	Rejected int64 `json:"rejected"`
	Timeout  int64 `json:"timeout"`
	ReadOnly int64 `json:"read_only"`
	Draining int64 `json:"draining"`
	Errors   int64 `json:"errors"`

	// Client-observed latency from scheduled arrival to response.
	P50Ns  int64 `json:"p50_ns"`
	P99Ns  int64 `json:"p99_ns"`
	P999Ns int64 `json:"p999_ns"`

	// GoodputOps counts served ops (ok + shed) per wall second;
	// GoodputMBps is the corresponding data rate.
	GoodputOps  float64 `json:"goodput_ops"`
	GoodputMBps float64 `json:"goodput_mbps"`
}

// Result is the whole run.
type Result struct {
	Steps []StepResult `json:"steps"`
}

// stepState accumulates one step under concurrency; every field is
// atomic, so the response goroutines share it without a lock.
type stepState struct {
	sent, skipped atomic.Int64
	outcomes      [7]atomic.Int64 // indexed by serve.Outcome
	latency       metrics.LogHist
}

func (st *stepState) observe(latNs int64, out serve.Outcome) {
	st.outcomes[out].Add(1)
	st.latency.Observe(latNs)
}

// Run drives the profile against sub, one ramp step at a time, waiting
// out each step's stragglers before the next begins so every response is
// charged to the step that offered it.
func Run(sub Submitter, p Profile) (*Result, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	pageBytes := float64(p.Pages) * 4096
	res := &Result{}
	for step, mult := range p.Ramp {
		rate := p.RatePerSec * mult
		// Two RNG streams: the schedule one draws per-arrival, the op one
		// draws per-op — both seeded per step so a step is reproducible in
		// isolation.
		arrivalRng := rand.New(rand.NewSource(p.Seed + int64(step)*7919))
		opRng := rand.New(rand.NewSource(p.Seed ^ (int64(step+1) * 104729)))
		st := &stepState{}
		var outstanding atomic.Int64
		var wg sync.WaitGroup

		start := time.Now()
		for nextNs := int64(0); nextNs < p.StepNs; nextNs += gapNs(p, arrivalRng, rate) {
			sched := start.Add(time.Duration(nextNs))
			if d := time.Until(sched); d > 0 {
				time.Sleep(d)
			}
			op := nextOp(p, opRng)
			if outstanding.Load() >= int64(p.MaxOutstanding) {
				st.skipped.Add(1)
				continue
			}
			outstanding.Add(1)
			st.sent.Add(1)
			wg.Add(1)
			go func(sched time.Time, op serve.Op) {
				defer wg.Done()
				defer outstanding.Add(-1)
				resp, err := sub.Submit(op)
				lat := time.Since(sched).Nanoseconds()
				if err != nil {
					st.observe(lat, serve.OutcomeError)
					return
				}
				st.observe(lat, resp.Outcome)
			}(sched, op)
		}
		wg.Wait()
		elapsed := time.Since(start)

		sr := StepResult{
			Multiplier: mult, TargetRate: rate, ElapsedNs: elapsed.Nanoseconds(),
			Sent: st.sent.Load(), Skipped: st.skipped.Load(),
			OK:       st.outcomes[serve.OutcomeOK].Load(),
			Shed:     st.outcomes[serve.OutcomeShed].Load(),
			Rejected: st.outcomes[serve.OutcomeRejected].Load(),
			Timeout:  st.outcomes[serve.OutcomeTimeout].Load(),
			ReadOnly: st.outcomes[serve.OutcomeReadOnly].Load(),
			Draining: st.outcomes[serve.OutcomeDraining].Load(),
			Errors:   st.outcomes[serve.OutcomeError].Load(),
			P50Ns:    st.latency.Quantile(0.5), P99Ns: st.latency.Quantile(0.99),
			P999Ns: st.latency.Quantile(0.999),
		}
		served := float64(sr.OK + sr.Shed)
		secs := elapsed.Seconds()
		if secs > 0 {
			sr.GoodputOps = served / secs
			sr.GoodputMBps = served * pageBytes / secs / (1 << 20)
		}
		res.Steps = append(res.Steps, sr)
	}
	return res, nil
}

// gapNs draws the next inter-arrival gap.
func gapNs(p Profile, rng *rand.Rand, rate float64) int64 {
	switch p.Arrival {
	case "burst":
		// Trains of BurstLen back-to-back arrivals; the gap after each
		// train restores the mean rate: train period = BurstLen/rate.
		if rng.Intn(p.BurstLen) != 0 {
			return 1 // back-to-back inside the train
		}
		return int64(float64(p.BurstLen) / rate * 1e9)
	default: // poisson
		g := rng.ExpFloat64() / rate * 1e9
		if g < 1 {
			g = 1
		}
		return int64(g)
	}
}

// nextOp draws one op: a tenant, an aligned offset inside its region,
// and the read/write coin.
func nextOp(p Profile, rng *rand.Rand) serve.Op {
	tenant := rng.Intn(p.Tenants)
	slots := p.RegionPages / int64(p.Pages)
	lpn := int64(tenant)*p.RegionPages + rng.Int63n(slots)*int64(p.Pages)
	return serve.Op{
		Write: rng.Float64() >= p.ReadFraction,
		LPN:   lpn, Pages: p.Pages, DeadlineNs: p.DeadlineNs,
	}
}

// Format renders the run as an aligned table for the terminal.
func (r *Result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%6s %9s %8s %6s %6s %6s %6s %6s %6s %5s %9s %9s %9s %9s %8s\n",
		"mult", "rate/s", "sent", "ok", "shed", "rej", "tmo", "ro", "err", "skip",
		"p50_ms", "p99_ms", "p999_ms", "good/s", "MB/s")
	for _, s := range r.Steps {
		fmt.Fprintf(&sb, "%6.2f %9.0f %8d %6d %6d %6d %6d %6d %6d %5d %9.2f %9.2f %9.2f %9.0f %8.1f\n",
			s.Multiplier, s.TargetRate, s.Sent, s.OK, s.Shed, s.Rejected, s.Timeout,
			s.ReadOnly, s.Errors+s.Draining, s.Skipped,
			float64(s.P50Ns)/1e6, float64(s.P99Ns)/1e6, float64(s.P999Ns)/1e6,
			s.GoodputOps, s.GoodputMBps)
	}
	return sb.String()
}
