//go:build go1.24

// The weak package arrived in Go 1.24; older toolchains skip this file.

package serve_test

import (
	"runtime"
	"testing"
	"time"
	"weak"

	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// TestDrainedServerWithTelemetryIsCollected checks that nothing global
// keeps a server reachable once its caller drops it: the server, its
// telemetry (health source and flight recorder attached) and its devices
// are all garbage after a drain.
func TestDrainedServerWithTelemetryIsCollected(t *testing.T) {
	leakcheck.Check(t)
	var refs []weak.Pointer[ssd.Device]
	srvRef, telRef := func() (weak.Pointer[serve.Server], weak.Pointer[obs.Telemetry]) {
		tel := obs.New()
		srv, err := serve.New(serve.Config{
			Shards: 2, Sharing: sim.SharingEqual, TotalCapacityPages: 64,
			DefaultDeadlineNs: int64(time.Minute),
			NewPolicy:         lruPolicy,
			NewDevice: func(k int) (*ssd.Device, error) {
				dev, err := testDevice(k)
				if err == nil {
					refs = append(refs, weak.Make(dev))
				}
				return dev, err
			},
			Telemetry:      tel,
			FlightRecorder: obs.NewFlightRecorder(2, 64, ""),
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if _, err := srv.Submit(serve.Op{Write: true, LPN: int64(i * 4), Pages: 4}); err != nil {
				t.Fatal(err)
			}
		}
		srv.Drain()
		return weak.Make(srv), weak.Make(tel)
	}()
	if len(refs) != 2 {
		t.Fatalf("server built %d devices, want 2", len(refs))
	}
	collected := func() bool {
		for _, r := range refs {
			if r.Value() != nil {
				return false
			}
		}
		return srvRef.Value() == nil && telRef.Value() == nil
	}
	for i := 0; i < 5 && !collected(); i++ {
		runtime.GC()
	}
	if !collected() {
		t.Fatalf("drained server still reachable: server %v, telemetry %v, devices %v %v",
			srvRef.Value() != nil, telRef.Value() != nil, refs[0].Value() != nil, refs[1].Value() != nil)
	}
}
