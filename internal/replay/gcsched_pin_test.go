package replay

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// TestGCSchedulerDisabledBitIdentical pins the scheduler's central
// contract: with scheduling effectively off, every replay metric is
// bit-identical to a device that never heard of the scheduler. Two
// devices run the same trace across policies × fault configs —
//
//	A: plain device (no scheduler call at all),
//	C: scheduler enabled but inert (pacing off, no budget granted).
//
// C may count greedy mandatory rounds in its scheduler stats, but after
// zeroing that one snapshot field it must be DeepEqual to A — the
// simulation itself (every latency distribution, GC counter, fault
// recovery and invariant check) must not move.
func TestGCSchedulerDisabledBitIdentical(t *testing.T) {
	tr := workload.MustGenerate(workload.SRC12(), workload.Options{Scale: 0.01})
	policies := []struct {
		name string
		make func() cache.Policy
	}{
		{"lru", func() cache.Policy { return cache.NewLRU(512) }},
		{"req-block", func() cache.Policy { return core.New(512) }},
	}
	faults := []struct {
		name string
		cfg  fault.Config
	}{
		{"fault-free", fault.Config{}},
		{"faulted", fault.Config{Seed: 5, ProgramFailProb: 0.002, GrownBadProb: 0.01, CheckInvariants: true}},
	}
	for _, pol := range policies {
		for _, fc := range faults {
			run := func(inert bool) *Metrics {
				t.Helper()
				p := ssd.ScaledParams(64)
				p.Precondition = 0.9 // nearly full: GC runs, the contract is stressed
				p.Faults = fc.cfg
				dev, err := ssd.New(p)
				if err != nil {
					t.Fatal(err)
				}
				if inert {
					dev.EnableGCScheduler(ftl.GCSchedConfig{PaceSteps: -1})
				}
				var opts Options
				opts.ApplyFaults(fc.cfg)
				opts.IdleFlushNs = 2_000_000
				m, err := Run(tr, pol.make(), dev, opts)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			a, c := run(false), run(true)
			if !reflect.DeepEqual(a.GCSched, ftl.GCSchedStats{}) {
				t.Errorf("%s/%s: plain device reported scheduler stats: %+v", pol.name, fc.name, a.GCSched)
			}
			c.GCSched = ftl.GCSchedStats{}
			if !reflect.DeepEqual(a, c) {
				t.Errorf("%s/%s: inert enabled scheduler perturbed the replay:\nA %+v\nC %+v", pol.name, fc.name, a, c)
			}
		}
	}
}

// TestGCSchedulerBudgetedReplay is the on-switch counterpart: granting a
// budget must actually schedule collections during idle windows and
// report them, while preserving device consistency.
func TestGCSchedulerBudgetedReplay(t *testing.T) {
	profile := workload.SRC12()
	profile.Burstiness = 10
	tr := workload.MustGenerate(profile, workload.Options{Scale: 0.02})
	p := ssd.ScaledParams(64)
	p.Precondition = 0.93
	dev, err := ssd.New(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(tr, core.New(1024), dev, Options{
		IdleFlushNs: 2_000_000,
		GCBudgetNs:  10_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dev.GCSchedEnabled() {
		t.Fatal("replay did not enable the scheduler for a budgeted run")
	}
	if m.GCSched.JobsStarted == 0 {
		t.Skip("no idle GC opportunities at this scale")
	}
	if m.IdleGCRuns == 0 && m.GCSched.JobsCompleted > 0 {
		t.Fatalf("scheduled collections unreported: IdleGCRuns=%d sched=%+v", m.IdleGCRuns, m.GCSched)
	}
	if err := dev.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
