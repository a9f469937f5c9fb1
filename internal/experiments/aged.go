package experiments

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/replay"
	"repro/internal/ssd"
)

// Aged-device scenario: a device that has already spent most of its P/E
// budget before the trace starts. Blocks are pre-worn near retirement
// (ftl.FTL.PreWear via fault.Config.PrewornErases) and the grown-defect
// rate is elevated, so wear detection retires a realistic population of
// blocks mid-replay — the regime where GC scheduling, retirement
// accounting and the read-only degradation path all earn their keep.

// AgedPrewornErases is the preset per-block erase seed: 90% of the QLC
// P/E budget the paper quotes (ssd.DefaultPELimit).
const AgedPrewornErases = ssd.DefaultPELimit * 9 / 10

// AgedPrewornJitter spreads the preset wear across blocks.
const AgedPrewornJitter = ssd.DefaultPELimit / 10

// AgedGrownBadProb is the preset elevated grown-defect rate per erase.
const AgedGrownBadProb = 2e-3

// AgedFaults merges the aged-device preset into a base fault config:
// pre-worn blocks, an elevated grown-defect rate, and the invariant
// checker. Fields the base already sets are kept, so an explicit -faults
// spec always wins over the preset.
func AgedFaults(base fault.Config) fault.Config {
	c := base
	if c.PrewornErases == 0 {
		c.PrewornErases = AgedPrewornErases
	}
	if c.PrewornJitter == 0 {
		c.PrewornJitter = AgedPrewornJitter
	}
	if c.GrownBadProb == 0 {
		c.GrownBadProb = AgedGrownBadProb
	}
	c.CheckInvariants = true
	return c
}

// AgedRow is one policy's outcome on the aged device.
type AgedRow struct {
	Trace           string
	Policy          string
	RetiredBlocks   int64
	GrownBad        int64
	EraseFails      int64
	Degraded        bool
	LifeConsumed    float64
	MeanResponseMs  float64
	P99Ms           float64
	InvariantChecks int64
}

// AgedDevice replays one trace across the paper's policies on the aged
// device and reports retirement accounting, degradation and latency per
// policy. The runner's fault config seeds the preset (AgedFaults), so an
// explicit Faults.Seed picks the defect sequence deterministically.
func (r *Runner) AgedDevice(traceName string, cacheMB int) ([]AgedRow, error) {
	t, err := r.Trace(traceName)
	if err != nil {
		return nil, err
	}
	fcfg := AgedFaults(r.cfg.Faults)
	var rows []AgedRow
	for _, factory := range r.PaperPolicies() {
		p := ssd.ScaledParams(r.cfg.DeviceDivisor)
		// Age the logical space too: GC must actually run for retirement
		// to matter, so default to a nearly full device.
		p.Precondition = 0.9
		if r.cfg.DevicePrecondition > 0 {
			p.Precondition = r.cfg.DevicePrecondition
		}
		p.Faults = fcfg
		dev, err := ssd.New(p)
		if err != nil {
			return nil, fmt.Errorf("experiments: aged device: %w", err)
		}
		if r.cfg.Tap != nil {
			dev.SetTap(r.cfg.Tap)
		}
		var opts replay.Options
		opts.ApplyFaults(fcfg)
		opts.BackPressureDepth = r.cfg.BackPressureDepth
		opts.Observers = append(opts.Observers, r.cfg.Observers...)
		m, err := replay.Run(t, factory.New(cacheMB*PagesPerMB), dev, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AgedRow{
			Trace:           traceName,
			Policy:          factory.Name,
			RetiredBlocks:   m.Device.RetiredBlocks,
			GrownBad:        m.Device.GrownBadBlocks,
			EraseFails:      m.Device.InjectedEraseFails,
			Degraded:        m.Degraded,
			LifeConsumed:    m.Endurance.LifeConsumed,
			MeanResponseMs:  m.Response.Mean() / 1e6,
			P99Ms:           m.ResponseP99.Value() / 1e6,
			InvariantChecks: m.Device.InvariantChecks,
		})
	}
	return rows, nil
}

// RenderAged renders the aged-device table.
func RenderAged(rows []AgedRow) string {
	header := []string{"Trace", "Policy", "Retired", "GrownBad", "EraseFails", "Degraded", "Life", "Mean ms", "P99 ms", "InvChecks"}
	var data [][]string
	for _, row := range rows {
		data = append(data, []string{
			row.Trace,
			row.Policy,
			fmt.Sprintf("%d", row.RetiredBlocks),
			fmt.Sprintf("%d", row.GrownBad),
			fmt.Sprintf("%d", row.EraseFails),
			fmt.Sprintf("%v", row.Degraded),
			fmt.Sprintf("%.2f", row.LifeConsumed),
			fmt.Sprintf("%.3f", row.MeanResponseMs),
			fmt.Sprintf("%.3f", row.P99Ms),
			fmt.Sprintf("%d", row.InvariantChecks),
		})
	}
	return renderTable("Aged device (pre-worn blocks, elevated grown defects)", header, data)
}
