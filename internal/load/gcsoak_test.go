package load_test

import (
	"os"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/leakcheck"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// TestGCSchedSoak is the GC-scheduling saturation soak (make soak-gc): a
// bursty open-loop ramp against preconditioned scheduler-enabled devices
// with light fault injection, under the race detector. Burst gaps are the
// queue-empty windows the front-end turns into budgeted GC slices, so the
// soak asserts the idle-window coordination actually fires, deadlines
// hold under light load, the overload ladder still engages past
// saturation, and the drain is clean even with collections split across
// slices throughout the run. Gated behind SSDSOAK_GC so tier-1 stays fast.
func TestGCSchedSoak(t *testing.T) {
	if os.Getenv("SSDSOAK_GC") == "" {
		t.Skip("set SSDSOAK_GC=1 (make soak-gc) to run the GC-scheduling soak")
	}
	leakcheck.Check(t)
	tel := obs.New()
	var fr *obs.FlightRecorder
	if dir := os.Getenv("SSDSOAK_FLIGHTDIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		fr = obs.NewFlightRecorder(2, 0, dir)
	}
	cfg := serve.Config{
		Shards: 2, TotalCapacityPages: 256, QueueDepth: 64, Shed: true,
		DefaultDeadlineNs: int64(250 * time.Millisecond),
		Pace:              true, Telemetry: tel, FlightRecorder: fr,
		// One full collection (reads + programs + 15ms erase) per empty
		// queue; anything under the erase cost would defer every victim.
		GCBudgetNs: 30_000_000,
		Sharing:    sim.SharingShared,
	}
	cfg.NewPolicy = func(_, n int) cache.Policy { return cache.NewLRU(n) }
	cfg.NewDevice = func(shard int) (*ssd.Device, error) {
		p := ssd.DefaultParams()
		p.Flash.BlocksPerPlane = 512
		p.Flash.PagesPerBlock = 16
		p.Precondition = 0.9 // nearly full: scheduled slices find real victims
		p.Faults = fault.Config{
			Seed:            uint64(11 + shard),
			GrownBadProb:    1e-4,
			CheckInvariants: true,
		}
		return ssd.New(p)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	res, err := load.Run(srv, load.Profile{
		Arrival: "burst", BurstLen: 16, RatePerSec: 3000, ReadFraction: 0.3,
		Tenants: 2, Pages: 4, StepNs: int64(5 * time.Second),
		Ramp: []float64{0.25, 1, 8, 32}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("gc soak ramp:\n%s", res.Format())

	first, last := res.Steps[0], res.Steps[len(res.Steps)-1]
	if first.OK == 0 {
		t.Fatal("under-load step served nothing")
	}
	// Deadline pin: scheduled GC must not push light-load requests past
	// their deadline — under 1% of the under-load step may time out.
	if first.Timeout*100 > first.Sent {
		t.Fatalf("under-load deadline regression: %d of %d timed out", first.Timeout, first.Sent)
	}
	var degradedSum int64
	for _, s := range res.Steps {
		degradedSum += s.Shed + s.Rejected + s.Timeout + s.Skipped
	}
	if degradedSum == 0 {
		t.Fatal("ramp never engaged the overload ladder (no shed/reject/timeout)")
	}
	if last.OK+last.Shed == 0 {
		t.Fatal("saturated step collapsed to zero goodput")
	}

	st := srv.Stats()
	if st.GCSlices == 0 {
		t.Fatal("queue-empty windows never granted a GC slice")
	}
	if st.GCVictims == 0 {
		t.Fatal("scheduled slices never collected a victim")
	}
	t.Logf("gc slices %d, victims %d", st.GCSlices, st.GCVictims)

	rep := srv.Drain()
	if rep.Degraded {
		t.Fatal("soak drain reports degraded (fault injection exhausted the reserve?)")
	}
	if status, _, _ := srv.HealthStatus(); status != serve.StateDraining {
		t.Fatalf("post-drain health %q, want draining", status)
	}
}
