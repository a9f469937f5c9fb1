// Package experiments regenerates every table and figure of the paper's
// evaluation (§4). Each experiment returns a structured result plus a
// rendered text table whose rows mirror what the paper plots; EXPERIMENTS.md
// records the measured output next to the paper's reported numbers.
//
// The default configuration runs the paper's grid — six workloads × four
// policies (LRU, BPLRU, VBBMS, Req-block) × three cache sizes (16/32/64 MB)
// — on a geometry-preserving scaled device (see flash.ScaledParams) with
// workloads scaled to 1/50 of the original trace lengths. Pass a Config
// with Scale=1 and DeviceDivisor=1 for a paper-scale run.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config parameterizes the experiment harness.
type Config struct {
	// Scale multiplies the workload profiles' request counts (profiles are
	// already 1/10 of the original traces; the default 0.2 yields 1/50).
	Scale float64
	// DeviceDivisor shrinks the flash array geometry-preservingly.
	DeviceDivisor int
	// DevicePrecondition is the fraction of logical space pre-mapped
	// before replay (0 = the ssd default of 0.5). Endurance runs want
	// 0.9+ so garbage collection actually fires.
	DevicePrecondition float64
	// CacheSizesMB are the evaluated data-cache sizes (Table 1: 16/32/64).
	CacheSizesMB []int
	// Delta is Req-block's small-request bound (§4.2.1 selects 5).
	Delta int
	// SeriesInterval is the Fig. 13 sampling interval in requests.
	SeriesInterval int64
	// IncludeExtras adds the related-work policies (FIFO, LFU, CFLRU, FAB)
	// to the grid beyond the paper's four.
	IncludeExtras bool
	// Traces restricts the workload set (nil = all six).
	Traces []string
	// SeedOffset perturbs every workload's generator seed, producing a
	// different instance of the same statistical workload (replications).
	SeedOffset int64
	// QueueDepth switches the grid to closed-loop replay (see
	// replay.Options.QueueDepth). Zero keeps the paper's open loop.
	QueueDepth int
	// BackPressureDepth bounds every device's destage backlog (see
	// replay.Options.BackPressureDepth). Zero keeps admissions unthrottled
	// and the grid bit-identical to earlier revisions.
	BackPressureDepth int
	// Faults enables deterministic fault injection on every device the
	// grid builds (see internal/fault). The zero value keeps the grid
	// fault-free and bit-identical to earlier revisions.
	Faults fault.Config
	// Observers attaches extra measurement observers to every replay the
	// runner performs (telemetry, progress — see replay.Options.Observers).
	// Observers accumulate across the whole grid: cmd/experiments uses this
	// to serve live /metrics over a multi-cell run. Not part of the JSON
	// report: observers measure a run, they do not configure it.
	Observers []sim.Observer `json:"-"`
	// Tap attaches a flash timing tap to every device the runner builds
	// (GC pause and program/read/erase histograms — see ftl.Tap). Not
	// part of the JSON report, for the same reason.
	Tap ftl.Tap `json:"-"`
}

// DefaultConfig returns the configuration used throughout EXPERIMENTS.md.
func DefaultConfig() Config {
	return Config{
		Scale:          0.2,
		DeviceDivisor:  16,
		CacheSizesMB:   []int{16, 32, 64},
		Delta:          core.DefaultDelta,
		SeriesInterval: 10000,
	}
}

// PagesPerMB is the page count of one MiB of 4 KB pages.
const PagesPerMB = 256

// Runner caches generated traces across experiments for one Config.
type Runner struct {
	cfg    Config
	traces map[string]*trace.Trace
	stats  map[string]trace.Stats
}

// NewRunner builds a Runner; zero-valued Config fields take defaults.
func NewRunner(cfg Config) *Runner {
	def := DefaultConfig()
	if cfg.Scale <= 0 {
		cfg.Scale = def.Scale
	}
	if cfg.DeviceDivisor < 1 {
		cfg.DeviceDivisor = def.DeviceDivisor
	}
	if len(cfg.CacheSizesMB) == 0 {
		cfg.CacheSizesMB = def.CacheSizesMB
	}
	if cfg.Delta < 1 {
		cfg.Delta = def.Delta
	}
	if cfg.SeriesInterval <= 0 {
		cfg.SeriesInterval = def.SeriesInterval
	}
	return &Runner{
		cfg:    cfg,
		traces: make(map[string]*trace.Trace),
		stats:  make(map[string]trace.Stats),
	}
}

// Config returns the resolved configuration.
func (r *Runner) Config() Config { return r.cfg }

// Profiles returns the workload profiles in evaluation order, honoring any
// Traces restriction.
func (r *Runner) Profiles() []workload.Profile {
	all := workload.All()
	if len(r.cfg.Traces) == 0 {
		return all
	}
	var out []workload.Profile
	for _, name := range r.cfg.Traces {
		if p, ok := workload.ByName(name); ok {
			out = append(out, p)
		}
	}
	return out
}

// Trace returns (generating and caching) the synthetic trace for a profile.
func (r *Runner) Trace(name string) (*trace.Trace, error) {
	if t, ok := r.traces[name]; ok {
		return t, nil
	}
	p, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown trace %q", name)
	}
	t, err := workload.Generate(p, workload.Options{Scale: r.cfg.Scale, SeedOffset: r.cfg.SeedOffset})
	if err != nil {
		return nil, err
	}
	r.traces[name] = t
	return t, nil
}

// TraceStats returns cached Table 2 statistics for a trace.
func (r *Runner) TraceStats(name string) (trace.Stats, error) {
	if s, ok := r.stats[name]; ok {
		return s, nil
	}
	t, err := r.Trace(name)
	if err != nil {
		return trace.Stats{}, err
	}
	s := trace.ComputeStats(t, 4096)
	r.stats[name] = s
	return s, nil
}

// Device builds a fresh simulated SSD for one replay. Every device gets the
// same fault configuration (and so the same injected-fault sequence for the
// same operation stream), keeping grid cells comparable.
func (r *Runner) Device() (*ssd.Device, error) {
	p := ssd.ScaledParams(r.cfg.DeviceDivisor)
	if r.cfg.DevicePrecondition > 0 {
		p.Precondition = r.cfg.DevicePrecondition
	}
	p.Faults = r.cfg.Faults
	dev, err := ssd.New(p)
	if err != nil {
		return nil, err
	}
	if r.cfg.Tap != nil {
		dev.SetTap(r.cfg.Tap)
	}
	return dev, nil
}

// PaperPolicies returns the paper's four-policy comparison set, ordered as
// the figures plot them.
func (r *Runner) PaperPolicies() []cache.Factory {
	pagesPerBlock := ssd.ScaledParams(r.cfg.DeviceDivisor).Flash.PagesPerBlock
	delta := r.cfg.Delta
	fs := []cache.Factory{
		{Name: "LRU", New: func(c int) cache.Policy { return cache.NewLRU(c) }},
		{Name: "BPLRU", New: func(c int) cache.Policy { return cache.NewBPLRU(c, pagesPerBlock) }},
		{Name: "VBBMS", New: func(c int) cache.Policy { return cache.NewVBBMS(c) }},
		{Name: "Req-block", New: func(c int) cache.Policy {
			return core.NewConfig(c, core.Config{Delta: delta, Merge: true, Recency: true})
		}},
	}
	if r.cfg.IncludeExtras {
		fs = append(fs,
			cache.Factory{Name: "FIFO", New: func(c int) cache.Policy { return cache.NewFIFO(c) }},
			cache.Factory{Name: "LFU", New: func(c int) cache.Policy { return cache.NewLFU(c) }},
			cache.Factory{Name: "CFLRU", New: func(c int) cache.Policy { return cache.NewCFLRU(c) }},
			cache.Factory{Name: "FAB", New: func(c int) cache.Policy { return cache.NewFAB(c, pagesPerBlock) }},
			cache.Factory{Name: "PUD-LRU", New: func(c int) cache.Policy { return cache.NewPUDLRU(c, pagesPerBlock) }},
			cache.Factory{Name: "ECR", New: func(c int) cache.Policy {
				return cache.NewECR(c, ssd.ScaledParams(r.cfg.DeviceDivisor).Flash.Channels)
			}},
			cache.Factory{Name: "RB-adaptive", New: func(c int) cache.Policy {
				return core.NewAdaptive(c, 0)
			}},
		)
	}
	return fs
}

// Replay runs one (trace, policy, cacheMB) cell.
func (r *Runner) Replay(traceName string, factory cache.Factory, cacheMB int, opts replay.Options) (*replay.Metrics, error) {
	t, err := r.Trace(traceName)
	if err != nil {
		return nil, err
	}
	dev, err := r.Device()
	if err != nil {
		return nil, err
	}
	pol := factory.New(cacheMB * PagesPerMB)
	opts.ApplyFaults(r.cfg.Faults)
	if opts.BackPressureDepth == 0 {
		opts.BackPressureDepth = r.cfg.BackPressureDepth
	}
	opts.Observers = append(opts.Observers, r.cfg.Observers...)
	return replay.Run(t, pol, dev, opts)
}

// renderTable renders an aligned text table: header row then data rows.
func renderTable(title string, header []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString(title)
	b.WriteString("\n")
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// sortedKeys returns the sorted keys of a string map (deterministic render).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
