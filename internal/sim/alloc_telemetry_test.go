package sim_test

import (
	"io"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// The engine must stay at ~0 allocations per request with the FULL
// telemetry plane attached: histogram/counter observer, flash timing tap,
// an (unsampled) Perfetto trace export and a progress reporter. This is the
// telemetry-enabled companion of TestEngineStepSteadyStateAllocs, which
// pins the disabled baseline; together they guarantee observability is
// free when off and allocation-free when on. It lives in package sim_test
// because internal/obs imports internal/sim.
func TestEngineStepAllocsWithTelemetry(t *testing.T) {
	p := ssd.DefaultParams()
	p.Flash.BlocksPerPlane = 512
	p.Flash.PagesPerBlock = 16
	p.Precondition = 0
	dev, err := ssd.New(p)
	if err != nil {
		t.Fatal(err)
	}

	const steps = 33000
	tel := obs.New()
	dev.SetTap(tel)
	exp := obs.NewTraceExport(io.Discard, 1<<30, 42)
	for i := 0; i < steps+2100; i++ {
		if exp.Sampled(i) {
			t.Fatalf("index %d sampled at rate 2^30; pick another seed", i)
		}
	}
	progress := obs.NewProgress(io.Discard, 0)

	eng := sim.New(nil, cache.NewLRU(4096), dev, sim.Config{QueueDepth: 16})
	eng.Observe(tel.Observer(), exp, progress)
	eng.Begin()

	rng := rand.New(rand.NewSource(7))
	now := int64(0)
	i := 0
	step := func() {
		now += 1000
		r := trace.Request{
			Time:   now,
			Write:  rng.Intn(10) < 7,
			Offset: int64(rng.Intn(20000)) * 4096,
			Size:   int64(1+rng.Intn(12)) * 4096,
		}
		if err := eng.Step(i, r, 4096); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for n := 0; n < steps; n++ {
		step()
	}
	if got := testing.AllocsPerRun(2000, step); got > 0.05 {
		t.Fatalf("telemetry-enabled steady-state allocs/req = %v, want ~0", got)
	}
	if tel.Requests.Value() == 0 || tel.ReqLatency.Count() == 0 {
		t.Fatal("telemetry observer never folded a request")
	}
	if tel.ProgramNs.Count() == 0 {
		t.Fatal("flash tap never saw a program")
	}
}
