package serve

import (
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// instruments is the ssdserve_* catalog: registered into the attached
// obs.Telemetry, or into a private registry without one. Stats reads the
// counters, so they are the server's one set of outcome tallies.
type instruments struct {
	queueDepth *obs.Gauge
	overload   *obs.Gauge

	accepted        *obs.Counter
	shed            *obs.Counter
	rejected        *obs.Counter
	timeoutsQueued  *obs.Counter
	timeoutsService *obs.Counter
	readonly        *obs.Counter
	drainRejected   *obs.Counter
	errs            *obs.Counter
	windowWaits     *obs.Counter
	shedPages       *obs.Counter
	drainedPages    *obs.Counter
	gcSlices        *obs.Counter
	gcVictims       *obs.Counter

	queueWait  *metrics.LogHist
	service    *metrics.LogHist
	windowWait *metrics.LogHist

	// simBlame[c] is the simulated-time blame breakdown of engine-served
	// requests, per cause (nonzero shares only).
	simBlame [sim.NumBlameCauses]*metrics.LogHist
}

// observeBlame folds one engine-path response's blame partition.
func (ins *instruments) observeBlame(bl *sim.Blame) {
	for c := 0; c < sim.NumBlameCauses; c++ {
		if v := bl.Ns[c]; v != 0 {
			ins.simBlame[c].Observe(v)
		}
	}
}

// newInstruments registers the serve catalog into tel's registry, or into
// a private one when tel is nil. Names collide on a second registration
// into the same Telemetry: one Server per Telemetry.
func newInstruments(tel *obs.Telemetry) *instruments {
	ins := &instruments{}
	r := &obs.Registry{}
	if tel != nil {
		r = tel.Registry()
	}
	ins.queueDepth = r.Gauge("ssdserve_queue_depth",
		"Requests currently queued across all shards")
	ins.overload = r.Gauge("ssdserve_overload_state",
		"Overload ladder rung: 0 ok, 1 queueing, 2 shedding, 3 rejecting, 4 read-only, 5 draining")
	ins.accepted = r.Counter("ssdserve_accepted_total",
		"Requests served through the cache engine")
	ins.shed = r.Counter("ssdserve_shed_total",
		"Writes admitted as write-around bypass to flash")
	ins.rejected = r.Counter("ssdserve_rejected_total",
		"Requests turned away with a backoff hint (queue full)")
	ins.timeoutsQueued = r.Counter("ssdserve_timeouts_queued_total",
		"Deadlines that expired while the request was queued")
	ins.timeoutsService = r.Counter("ssdserve_timeouts_service_total",
		"Deadlines that expired while the request was in service")
	ins.readonly = r.Counter("ssdserve_readonly_rejected_total",
		"Writes refused because the device is in read-only mode")
	ins.drainRejected = r.Counter("ssdserve_drain_rejected_total",
		"Requests refused because the server is draining")
	ins.errs = r.Counter("ssdserve_errors_total",
		"Requests that failed on an internal engine or device error")
	ins.windowWaits = r.Counter("ssdserve_window_waits_total",
		"Writes that blocked waiting for a DRAM free slot")
	ins.shedPages = r.Counter("ssdserve_shed_pages_total",
		"Pages written around the cache by shed writes")
	ins.drainedPages = r.Counter("ssdserve_drained_pages_total",
		"Dirty pages destaged to flash during graceful drain")
	ins.gcSlices = r.Counter("ssdserve_gc_slices_total",
		"Budgeted GC slices granted to shards whose queue was empty")
	ins.gcVictims = r.Counter("ssdserve_gc_victims_total",
		"GC victim collections completed inside those slices")
	ins.queueWait = r.Hist("ssdserve_queue_wait_ns",
		"Admission wait per request in server-clock nanoseconds")
	ins.service = r.Hist("ssdserve_service_ns",
		"Service time per request in server-clock nanoseconds")
	ins.windowWait = r.Hist("ssdserve_window_wait_ns",
		"DRAM write-window wait per blocked write in server-clock nanoseconds")
	for c := 0; c < sim.NumBlameCauses; c++ {
		name := sim.BlameCause(c).String()
		ins.simBlame[c] = r.Hist("ssdserve_blame_"+name+"_ns",
			"Simulated response time attributed to the "+name+" cause on engine-served requests, nonzero shares only")
	}
	return ins
}
