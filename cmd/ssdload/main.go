// Command ssdload is the open-loop load generator for ssdserve: arrivals
// fire on a Poisson or bursty schedule regardless of outstanding work,
// so pushing the rate past the service's capacity exposes the overload
// ladder instead of self-throttling around it. Latency is charged from
// the scheduled arrival (no coordinated omission) and reported as
// client-side P50/P99/P99.9 with goodput, one row per ramp step.
//
// Target a running server:
//
//	ssdload -target http://127.0.0.1:9000 -rate 2000 -duration 10s -ramp 0.25,1,4,16
//
// Or soak an in-process server (no network, same service stack):
//
//	ssdload -inproc -shards 4 -cache-mb 16 -shed -rate 3000 -ramp 1,8,64
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/ssd"
)

func main() {
	var (
		target   = flag.String("target", "", "base URL of a running ssdserve (e.g. http://127.0.0.1:9000)")
		inproc   = flag.Bool("inproc", false, "spin up an in-process server instead of -target")
		rate     = flag.Float64("rate", 1000, "mean arrival rate in ops/sec at ramp multiplier 1")
		arrival  = flag.String("arrival", "poisson", "arrival process: poisson or burst")
		burstLen = flag.Int("burst-len", 32, "ops per train for -arrival burst")
		duration = flag.Duration("duration", 10*time.Second, "wall-clock duration of each ramp step")
		ramp     = flag.String("ramp", "1", "comma-separated rate multipliers, one step each (e.g. 0.25,1,4,16)")
		tenants  = flag.Int("tenants", 1, "tenant count; ops spread across disjoint LPN regions")
		region   = flag.Int64("region-pages", 4096, "pages per tenant region")
		readFrac = flag.Float64("read-frac", 0.3, "fraction of ops that are reads")
		pages    = flag.Int("pages", 4, "pages per op")
		deadline = flag.Duration("deadline", 0, "per-op deadline (0 = server default)")
		seed     = flag.Int64("seed", 1, "arrival schedule and op mix seed")
		maxOut   = flag.Int("max-outstanding", 4096, "cap on in-flight ops (overflow counted as skipped)")

		// In-process server knobs (-inproc).
		shards    = flag.Int("shards", 2, "in-proc: cache shards")
		cacheMB   = flag.Int("cache-mb", 4, "in-proc: total cache MiB")
		qDepth    = flag.Int("queue-depth", 256, "in-proc: admission queue slots per shard")
		window    = flag.Int("window-pages", 0, "in-proc: write window pages per shard (0 = 1.5x capacity)")
		shed      = flag.Bool("shed", false, "in-proc: shed writes around a full window")
		pace      = flag.Bool("pace", true, "in-proc: throttle to simulated device time")
		divisor   = flag.Int("device-divisor", 64, "in-proc: flash array size divisor")
		flightDir = flag.String("flight-recorder", "", "in-proc: directory for anomaly-triggered flight-recorder dumps (empty = off)")
		gcBudget  = flag.Duration("gc-budget", 0, "in-proc: enable the preemptible GC scheduler and spend up to this much simulated time per queue-empty idle slice (0 = greedy GC)")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "ssdload:", err)
		os.Exit(1)
	}

	multipliers, err := parseRamp(*ramp)
	if err != nil {
		fail(err)
	}

	var sub load.Submitter
	switch {
	case *target != "":
		sub = targetClient(*target, *maxOut)
	case *inproc:
		params := ssd.ScaledParams(*divisor)
		tel := obs.New()
		var fr *obs.FlightRecorder
		if *flightDir != "" {
			if err := os.MkdirAll(*flightDir, 0o755); err != nil {
				fail(err)
			}
			fr = obs.NewFlightRecorder(*shards, 0, *flightDir)
		}
		srv, err := serve.New(serve.Config{
			Shards: *shards, Sharing: sim.SharingShared,
			TotalCapacityPages: *cacheMB * 256,
			NewPolicy:          func(_, n int) cache.Policy { return cache.NewLRU(n) },
			NewDevice: func(shard int) (*ssd.Device, error) {
				d, err := ssd.New(params)
				if err != nil {
					return nil, err
				}
				if tap := obs.MultiTap(tel, fr.Tap(shard)); tap != nil {
					d.SetTap(tap)
				}
				return d, nil
			},
			QueueDepth: *qDepth, WriteWindowPages: *window, Shed: *shed,
			DefaultDeadlineNs: int64(2 * time.Second),
			Pace:              *pace, Telemetry: tel,
			FlightRecorder: fr,
			GCBudgetNs:     int64(*gcBudget),
		})
		if err != nil {
			fail(err)
		}
		defer func() {
			rep := srv.Drain()
			fmt.Fprintf(os.Stderr, "ssdload: drained %d pages, %d dirty remain, degraded=%v\n",
				rep.DrainedPages, rep.RemainingDirtyPages, rep.Degraded)
			if path := fr.Trigger("run-end", 0, 0); path != "" {
				fmt.Fprintf(os.Stderr, "ssdload: flight recorder dump %s\n", path)
			}
		}()
		sub = srv
	default:
		fail(fmt.Errorf("need -target URL or -inproc"))
	}

	fmt.Fprintf(os.Stderr, "ssdload: %s arrivals, base rate %.0f/s, ramp %v, %v per step\n",
		*arrival, *rate, multipliers, *duration)
	res, err := load.Run(sub, load.Profile{
		Arrival: *arrival, RatePerSec: *rate, BurstLen: *burstLen,
		Tenants: *tenants, RegionPages: *region, ReadFraction: *readFrac,
		Pages: *pages, DeadlineNs: int64(*deadline),
		StepNs: int64(*duration), Ramp: multipliers, Seed: *seed,
		MaxOutstanding: *maxOut,
	})
	if err != nil {
		fail(err)
	}
	fmt.Print(res.Format())
}

// targetClient drives the ssdserve at base over keep-alive connections,
// keeping up to maxOut of them idle between ops. http.DefaultClient keeps
// two per host, so with more ops in flight most would dial a fresh
// connection and leave the old one in TIME_WAIT.
func targetClient(base string, maxOut int) *serve.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = maxOut
	tr.MaxIdleConnsPerHost = maxOut
	return &serve.Client{Base: strings.TrimRight(base, "/"), HTTP: &http.Client{Transport: tr}}
}

// parseRamp parses "0.25,1,4" into multipliers.
func parseRamp(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("ramp step %q: %w", p, err)
		}
		out[i] = v
	}
	return out, nil
}
