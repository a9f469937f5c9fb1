// Package serve is the open-loop service front-end over the sharded
// simulation engine: it accepts individual read/write requests from
// concurrent clients, routes them to per-shard cache engines, and keeps
// the system well-behaved past saturation instead of melting down.
//
// Admission follows MQSim's DRAM front-end: a write first needs a free
// slot in the shard's write window (the analogue of MQSim's
// waiting_user_requests_queue_for_dram_free_slot — the DRAM buffer plus
// the writes already queued for it), while reads bypass the window and
// only contend for the bounded admission queue. Past that point the
// overload ladder degrades in explicit rungs:
//
//	rung 0  queue     — wait for a window slot / a queue position
//	rung 1  shed      — write-around bypass straight to flash (Config.Shed)
//	rung 2  reject    — queue full: turn away with a backoff hint
//	rung 3  read-only — device degraded: writes refused, reads served
//	rung 4  draining  — graceful shutdown: intake closed, queued work
//	                    finishes, dirty pages destage, telemetry flushes
//
// Every request carries a deadline; expiry is charged to the phase where
// it happened (queued vs in service), so tail-latency diagnoses point at
// the right stage. The clock is injectable (Config.Now) which makes the
// deadline machinery deterministic under test. Shards are built by
// sim.BuildShards, the same build the sharded replay uses: with the ladder
// idle, one request at a time on a fake clock set to each arrival, a
// server's responses equal a replay's per-request results bit for bit.
package serve

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// Outcome classifies how a submitted request ended.
type Outcome uint8

const (
	// OutcomeOK means the request was served through the cache engine
	// (or, after degradation, a read served directly from flash).
	OutcomeOK Outcome = iota
	// OutcomeShed means the write was admitted as a write-around bypass:
	// it went straight to flash without occupying DRAM (ladder rung 1).
	OutcomeShed
	// OutcomeRejected means the shard's admission queue was full; the
	// response carries a RetryAfterNs backoff hint (ladder rung 2).
	OutcomeRejected
	// OutcomeTimeout means the deadline expired; Phase says whether it
	// expired while queued or while in service.
	OutcomeTimeout
	// OutcomeReadOnly means a write was refused because the device is in
	// degraded read-only mode (ladder rung 3).
	OutcomeReadOnly
	// OutcomeDraining means intake was already closed by Drain.
	OutcomeDraining
	// OutcomeError means an internal engine or device failure.
	OutcomeError
)

// String names the outcome for logs and stats.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeShed:
		return "shed"
	case OutcomeRejected:
		return "rejected"
	case OutcomeTimeout:
		return "timeout"
	case OutcomeReadOnly:
		return "read-only"
	case OutcomeDraining:
		return "draining"
	default:
		return "error"
	}
}

// Phase localizes a deadline expiry.
type Phase uint8

const (
	// PhaseNone: the request did not time out.
	PhaseNone Phase = iota
	// PhaseQueued: the deadline expired while the request waited for
	// admission (in the queue or in the write-window wait).
	PhaseQueued
	// PhaseService: the deadline expired while the engine was serving
	// the request (e.g. stalled behind a destage flush).
	PhaseService
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseQueued:
		return "queued"
	case PhaseService:
		return "service"
	default:
		return ""
	}
}

// Op is one client request.
type Op struct {
	// Write selects write (true) or read (false).
	Write bool
	// LPN is the first logical page.
	LPN int64
	// Pages is the span length in pages, >= 1.
	Pages int
	// DeadlineNs is the latency budget relative to submission in server
	// clock nanoseconds; zero applies Config.DefaultDeadlineNs.
	DeadlineNs int64
}

// Response reports how one Op ended. Latency fields are in server-clock
// nanoseconds except SimLatencyNs, which is simulated device time.
type Response struct {
	// Outcome classifies the ending; Phase localizes timeouts.
	Outcome Outcome
	Phase   Phase
	// Shard is the shard that owned the request.
	Shard int
	// QueueNs is submission → dequeue; ServiceNs is dequeue → response.
	QueueNs   int64
	ServiceNs int64
	// WindowNs is the DRAM write-window wait inside the queue phase: how
	// long the submitter blocked for a free slot (0 when the reservation
	// succeeded immediately, for reads, and for shed writes).
	WindowNs int64
	// SimBlame is the engine's exact per-cause latency partition of
	// SimLatencyNs (engine path only; zero elsewhere).
	SimBlame sim.Blame
	// SimLatencyNs is the simulated device response time (issue to
	// completion on the device timeline).
	SimLatencyNs int64
	// RetryAfterNs is the backoff hint on OutcomeRejected.
	RetryAfterNs int64
	// Hits and Misses are the page-level cache outcomes (engine path).
	Hits, Misses int
}

// Config assembles a Server.
type Config struct {
	// Shards, Sharing, TotalCapacityPages, NewPolicy, NewDevice, the tenant
	// routing fields, BackPressureDepth and GCBudgetNs describe the shard
	// topology. New hands them to sim.BuildShards, the shard build the
	// sharded replay uses, so they take the same values and pass the same
	// validation as sim.ShardConfig's fields of the same names.
	Shards             int
	Sharing            sim.SharingMode
	TotalCapacityPages int
	NewPolicy          func(shard, capacityPages int) cache.Policy
	NewDevice          func(shard int) (*ssd.Device, error)

	// TenantBoundaries / TenantRegionPages select the LPN routing:
	// explicit boundaries route when set, hash regions otherwise; setting
	// both is rejected.
	TenantBoundaries  []int64
	TenantRegionPages int64

	// QueueDepth bounds each shard's admission queue in requests
	// (default 256). A full queue rejects with a backoff hint.
	QueueDepth int
	// WriteWindowPages is the per-shard DRAM free-slot window: a write
	// is admitted only while buffered pages plus queued write pages fit
	// under it. Zero derives 1.5x the shard policy's capacity (the whole
	// buffer under SHARED, the shard's slice under EQUAL). Reads bypass
	// the window.
	WriteWindowPages int
	// Shed enables ladder rung 1: writes that do not fit the window are
	// admitted as write-around bypasses to flash instead of waiting.
	Shed bool
	// DefaultDeadlineNs applies to requests without their own deadline
	// (default 2s). MaxWaitNs caps the write-window wait regardless of
	// deadline (default: DefaultDeadlineNs).
	DefaultDeadlineNs int64
	MaxWaitNs         int64

	// BackPressureDepth configures each shard device's destage
	// back-pressure ring (ssd.Device.SetBackPressure). Zero disables.
	BackPressureDepth int
	// GCBudgetNs grants a shard's device one budgeted slice of preemptible
	// GC (ssd.Device.ScheduleGC) each time its admission queue runs empty —
	// the service-layer analogue of the engine's idle-window coordination.
	// A positive budget enables the GC scheduler on devices built without
	// it. Zero disables.
	GCBudgetNs int64

	// Pace throttles each shard worker so simulated device time does not
	// run ahead of the wall clock: the simulated device becomes the real
	// bottleneck and saturation behaves like a physical drive's. Ignored
	// when Now is set (a fake clock cannot sleep).
	Pace bool

	// Telemetry, when set, receives the ssdserve_* instrument catalog,
	// per-shard engine instruments, and the /healthz health source. One
	// Server per Telemetry (instrument names collide otherwise).
	Telemetry *obs.Telemetry
	// FlightRecorder, when set, records each shard's engine events and
	// dumps the rings on anomalies: deadline expiry, overload-ladder rung
	// changes, and entry into degraded/read-only mode. Also attached to
	// Telemetry's /debug/flightrec endpoint when both are set.
	FlightRecorder *obs.FlightRecorder
	// Now is the server clock in nanoseconds; nil uses monotonic wall
	// time since New. Tests inject a fake clock for deterministic
	// deadline behavior.
	Now func() int64
}

// Server is the live front-end. Build with New, submit with Submit from
// any number of goroutines, stop with Drain.
type Server struct {
	cfg     Config
	now     func() int64
	pace    bool
	logical int64
	shards  []*shard
	met     *instruments
	fr      *obs.FlightRecorder

	// lastRung tracks the overload-ladder rung for flight-recorder
	// rung-change triggers; only maintained while fr is attached.
	lastRung atomic.Int64

	// stateMu is the intake barrier: Submit holds RLock from the
	// draining check through the queue send, Drain takes Lock before
	// closing the queues, so no send can race a close.
	stateMu  sync.RWMutex
	draining atomic.Bool
	degraded atomic.Bool
	depth    atomic.Int64

	wg        sync.WaitGroup
	drainOnce sync.Once
	report    DrainReport
}

// Default admission parameters.
const (
	defaultQueueDepth = 256
	defaultDeadlineNs = int64(2 * time.Second)
	paceSlackNs       = int64(2 * time.Millisecond)
)

// New validates the config, builds the shards through sim.BuildShards, and
// starts their workers. The server accepts requests as soon as New returns.
func New(cfg Config) (*Server, error) {
	if cfg.QueueDepth < 0 || cfg.WriteWindowPages < 0 || cfg.DefaultDeadlineNs < 0 || cfg.MaxWaitNs < 0 {
		return nil, fmt.Errorf("serve: negative admission parameter")
	}
	built, err := sim.BuildShards(sim.ShardConfig{
		Shards:             cfg.Shards,
		Sharing:            cfg.Sharing,
		TotalCapacityPages: cfg.TotalCapacityPages,
		NewPolicy:          cfg.NewPolicy,
		NewDevice:          cfg.NewDevice,
		TenantBoundaries:   cfg.TenantBoundaries,
		TenantRegionPages:  cfg.TenantRegionPages,
		BackPressureDepth:  cfg.BackPressureDepth,
		Engine:             sim.Config{GCBudgetNs: cfg.GCBudgetNs},
	})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = defaultQueueDepth
	}
	if cfg.DefaultDeadlineNs == 0 {
		cfg.DefaultDeadlineNs = defaultDeadlineNs
	}
	if cfg.MaxWaitNs == 0 {
		cfg.MaxWaitNs = cfg.DefaultDeadlineNs
	}

	srv := &Server{
		cfg: cfg, met: newInstruments(cfg.Telemetry), fr: cfg.FlightRecorder,
		logical: built[0].Device.LogicalPages(),
	}
	if cfg.Now != nil {
		srv.now = cfg.Now
	} else {
		start := time.Now()
		srv.now = func() int64 { return time.Since(start).Nanoseconds() }
		srv.pace = cfg.Pace
	}

	var hook func(int, *sim.Engine) []sim.Observer
	if cfg.Telemetry != nil {
		hook = cfg.Telemetry.ShardObservers(cfg.Shards)
	}
	for k, b := range built {
		window := int64(cfg.WriteWindowPages)
		if window == 0 {
			window = int64(b.CapacityPages) + int64(b.CapacityPages)/2
		}
		s := &shard{
			id:     k,
			srv:    srv,
			pol:    b.Policy,
			dev:    b.Device,
			queue:  make(chan *work, cfg.QueueDepth),
			window: window,
		}
		s.cond = sync.NewCond(&s.mu)
		s.idler, _ = b.Policy.(cache.IdleEvictor)
		s.eng = sim.New(&liveSource{s: s, name: fmt.Sprintf("serve-shard%d", k)}, b.Policy, b.Device, b.Engine)
		s.eng.Observe(&shardObserver{s: s})
		if hook != nil {
			s.eng.Observe(hook(k, s.eng)...)
		}
		if srv.fr != nil {
			s.eng.Observe(srv.fr.Observer(k))
		}
		srv.shards = append(srv.shards, s)
	}
	if cfg.Telemetry != nil {
		cfg.Telemetry.SetHealthSource(srv)
		if srv.fr != nil {
			cfg.Telemetry.SetFlightRecorder(srv.fr)
		}
	}
	for _, s := range srv.shards {
		srv.wg.Add(1)
		go prof.Do("serve", s.id, s.run)
	}
	return srv, nil
}

// Submit routes one request through the admission ladder and blocks until
// its response. It is safe from any number of goroutines. The error
// return is reserved for malformed requests; overload outcomes are
// reported in the Response.
func (srv *Server) Submit(op Op) (Response, error) {
	if op.Pages < 1 {
		return Response{}, fmt.Errorf("serve: %d pages, need >= 1", op.Pages)
	}
	// Bounds check without LPN+Pages arithmetic: the sum overflows for
	// Pages near MaxInt64, wraps negative, and would pass a naive check.
	if op.LPN < 0 || int64(op.Pages) > srv.logical || op.LPN > srv.logical-int64(op.Pages) {
		return Response{}, fmt.Errorf("serve: lpn %d+%d outside logical space %d",
			op.LPN, op.Pages, srv.logical)
	}
	if op.DeadlineNs < 0 {
		return Response{}, fmt.Errorf("serve: negative deadline %d", op.DeadlineNs)
	}
	k := sim.RouteLPN(op.LPN, srv.cfg.TenantBoundaries, srv.cfg.TenantRegionPages, len(srv.shards))
	s := srv.shards[k]
	if op.Write && !srv.cfg.Shed && int64(op.Pages) > s.window {
		return Response{}, fmt.Errorf("serve: write of %d pages exceeds the %d-page window and shedding is off",
			op.Pages, s.window)
	}
	now := srv.now()
	w := &work{op: op, submitted: now, done: make(chan Response, 1)}
	budget := srv.cfg.DefaultDeadlineNs
	if op.DeadlineNs > 0 {
		budget = op.DeadlineNs
	}
	w.deadline = after(now, budget)

	srv.stateMu.RLock()
	if srv.draining.Load() {
		srv.stateMu.RUnlock()
		return srv.count(Response{Outcome: OutcomeDraining, Shard: k}), nil
	}
	resp, enqueued := s.admit(w)
	srv.stateMu.RUnlock()
	if !enqueued {
		return resp, nil
	}
	return <-w.done, nil
}

// after returns the server-clock time d nanoseconds after t, for a d that
// is not negative, saturated at math.MaxInt64: a deadline past the clock's
// reach never expires, where the wrapped sum would expire at once.
func after(t, d int64) int64 {
	if t > 0 && d > math.MaxInt64-t {
		return math.MaxInt64
	}
	return t + d
}

// ForceReadOnly pushes every shard's device into degraded read-only mode
// through the shard workers (the devices are single-threaded, so the
// transition must happen on the owning goroutine). It blocks until every
// live shard has acknowledged. Used by the admin endpoint and by tests.
func (srv *Server) ForceReadOnly() {
	for _, s := range srv.shards {
		w := &work{ctrl: ctrlForceReadOnly, submitted: srv.now(), done: make(chan Response, 1)}
		srv.stateMu.RLock()
		if srv.draining.Load() {
			srv.stateMu.RUnlock()
			continue
		}
		// Control ops skip the ladder: block for a queue slot (the worker
		// is draining the queue, so the send always completes).
		s.queue <- w
		srv.depth.Add(1)
		srv.met.queueDepth.Set(srv.depth.Load())
		srv.stateMu.RUnlock()
		<-w.done
	}
}

// setDegraded flips the global read-only bit and wakes window waiters so
// they fail fast instead of waiting out their deadline.
func (srv *Server) setDegraded() {
	if srv.degraded.CompareAndSwap(false, true) {
		srv.fr.Trigger("read-only", 0, srv.now())
		for _, s := range srv.shards {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		}
	}
}

// flightDeadline records a deadline expiry in the flight recorder and
// dumps the rings (the first misses produce files; later ones only
// record). Nil-safe via the recorder.
func (srv *Server) flightDeadline(shard int, phase Phase, overrunNs int64) {
	if srv.fr == nil {
		return
	}
	now := srv.now()
	srv.fr.Record(shard, obs.FlightDeadlineMiss, now, int64(phase), overrunNs, 0)
	srv.fr.Trigger("deadline-"+phase.String(), shard, now)
}

// noteRung feeds the overload-ladder rung derived from live state into the
// flight recorder, recording transitions and dumping on escalations. Only
// called while a recorder is attached (state() takes per-shard locks).
func (srv *Server) noteRung() {
	state, _ := srv.state()
	rung := stateRung(state)
	old := srv.lastRung.Load()
	if old == rung || !srv.lastRung.CompareAndSwap(old, rung) {
		return
	}
	now := srv.now()
	srv.fr.Record(0, obs.FlightRungChange, now, old, rung, 0)
	if rung > old {
		srv.fr.Trigger("rung-"+state, 0, now)
	}
}

// count folds a finished response into the instruments and returns it
// unchanged (so call sites can count-and-return in one line).
func (srv *Server) count(resp Response) Response {
	m := srv.met
	if resp.WindowNs > 0 {
		m.windowWait.Observe(resp.WindowNs)
	}
	switch resp.Outcome {
	case OutcomeOK:
		m.accepted.Inc()
		m.queueWait.Observe(resp.QueueNs)
		m.service.Observe(resp.ServiceNs)
		m.observeBlame(&resp.SimBlame)
	case OutcomeShed:
		m.shed.Inc()
		m.queueWait.Observe(resp.QueueNs)
		m.service.Observe(resp.ServiceNs)
	case OutcomeTimeout:
		// The expiry is charged to the phase where the deadline died: a
		// queued expiry never reached service, so only the queue-wait
		// histogram sees it.
		if resp.Phase == PhaseService {
			m.timeoutsService.Inc()
			m.queueWait.Observe(resp.QueueNs)
			m.service.Observe(resp.ServiceNs)
			m.observeBlame(&resp.SimBlame)
		} else {
			m.timeoutsQueued.Inc()
			m.queueWait.Observe(resp.QueueNs)
		}
	case OutcomeRejected:
		m.rejected.Inc()
	case OutcomeReadOnly:
		m.readonly.Inc()
	case OutcomeDraining:
		m.drainRejected.Inc()
	case OutcomeError:
		m.errs.Inc()
	}
	if srv.fr != nil {
		srv.noteRung()
	}
	return resp
}

// Overload-ladder state names, in escalation order. HealthStatus returns
// one of these and /healthz reports it.
const (
	StateOK        = "ok"
	StateQueueing  = "queueing"
	StateShedding  = "shedding"
	StateRejecting = "rejecting"
	StateReadOnly  = "read-only"
	StateDraining  = "draining"
)

// stateRung maps a state name to its numeric gauge value.
func stateRung(state string) int64 {
	switch state {
	case StateQueueing:
		return 1
	case StateShedding:
		return 2
	case StateRejecting:
		return 3
	case StateReadOnly:
		return 4
	case StateDraining:
		return 5
	default:
		return 0
	}
}

// HealthStatus implements obs.HealthSource: the current ladder state,
// whether the service should receive traffic, and the queued request
// count. Scrapes also refresh the ssdserve_overload_state gauge.
func (srv *Server) HealthStatus() (string, bool, int64) {
	state, serving := srv.state()
	depth := srv.depth.Load()
	srv.met.overload.Set(stateRung(state))
	return state, serving, depth
}

// state derives the ladder rung from live shard state.
func (srv *Server) state() (string, bool) {
	switch {
	case srv.draining.Load():
		return StateDraining, false
	case srv.degraded.Load():
		return StateReadOnly, false
	}
	full, windowed := false, false
	for _, s := range srv.shards {
		if len(s.queue) == cap(s.queue) {
			full = true
		}
		s.mu.Lock()
		if s.cached+s.queuedWrite >= s.window {
			windowed = true
		}
		s.mu.Unlock()
	}
	switch {
	case full:
		return StateRejecting, false
	case windowed:
		// Rung 1 only exists with shedding enabled; without it a full
		// window blocks writes in waitWindow, which is rung-0 queueing.
		if srv.cfg.Shed {
			return StateShedding, true
		}
		return StateQueueing, true
	case srv.depth.Load() > 0:
		return StateQueueing, true
	}
	return StateOK, true
}

// ShardStats is one shard's live snapshot.
type ShardStats struct {
	Shard            int   `json:"shard"`
	QueueDepth       int   `json:"queue_depth"`
	CachedPages      int64 `json:"cached_pages"`
	QueuedWritePages int64 `json:"queued_write_pages"`
	WindowPages      int64 `json:"window_pages"`
	SimTimeNs        int64 `json:"sim_time_ns"`
	Failed           bool  `json:"failed"`
}

// Stats is the /v1/stats snapshot: outcome tallies plus per-shard state.
type Stats struct {
	State           string       `json:"state"`
	Rung            int64        `json:"rung"`
	QueueDepth      int64        `json:"queue_depth"`
	Accepted        int64        `json:"accepted"`
	Shed            int64        `json:"shed"`
	Rejected        int64        `json:"rejected"`
	TimeoutsQueued  int64        `json:"timeouts_queued"`
	TimeoutsService int64        `json:"timeouts_service"`
	ReadOnly        int64        `json:"read_only_rejected"`
	DrainRejected   int64        `json:"drain_rejected"`
	Errors          int64        `json:"errors"`
	WindowWaits     int64        `json:"window_waits"`
	ShedPages       int64        `json:"shed_pages"`
	DrainedPages    int64        `json:"drained_pages"`
	GCSlices        int64        `json:"gc_slices"`
	GCVictims       int64        `json:"gc_victims"`
	Shards          []ShardStats `json:"shards"`
}

// Stats snapshots the server. Safe while serving.
func (srv *Server) Stats() Stats {
	state, _ := srv.state()
	m := srv.met
	st := Stats{
		State:           state,
		Rung:            stateRung(state),
		QueueDepth:      srv.depth.Load(),
		Accepted:        m.accepted.Value(),
		Shed:            m.shed.Value(),
		Rejected:        m.rejected.Value(),
		TimeoutsQueued:  m.timeoutsQueued.Value(),
		TimeoutsService: m.timeoutsService.Value(),
		ReadOnly:        m.readonly.Value(),
		DrainRejected:   m.drainRejected.Value(),
		Errors:          m.errs.Value(),
		WindowWaits:     m.windowWaits.Value(),
		ShedPages:       m.shedPages.Value(),
		DrainedPages:    m.drainedPages.Value(),
		GCSlices:        m.gcSlices.Value(),
		GCVictims:       m.gcVictims.Value(),
	}
	for _, s := range srv.shards {
		s.mu.Lock()
		ss := ShardStats{
			Shard:            s.id,
			QueueDepth:       len(s.queue),
			CachedPages:      s.cached,
			QueuedWritePages: s.queuedWrite,
			WindowPages:      s.window,
		}
		s.mu.Unlock()
		ss.SimTimeNs = s.simNow.Load()
		ss.Failed = s.failed.Load()
		st.Shards = append(st.Shards, ss)
	}
	return st
}

// DrainReport summarizes the graceful shutdown.
type DrainReport struct {
	// DrainedPages were destaged to flash during the drain.
	DrainedPages int64
	// RemainingDirtyPages stayed buffered (the policy declined to
	// nominate them, or the device degraded mid-drain).
	RemainingDirtyPages int64
	// Degraded reports whether any shard ended in read-only mode.
	Degraded bool
}

// Drain performs the graceful shutdown: close intake (new submissions get
// OutcomeDraining), let the workers finish every queued request, destage
// dirty pages, and flush the final telemetry state. Idempotent; blocks
// until every worker has exited.
func (srv *Server) Drain() DrainReport {
	srv.drainOnce.Do(func() {
		srv.draining.Store(true)
		// Wake window waiters under the shard lock so none miss the flag
		// between their check and cond.Wait.
		for _, s := range srv.shards {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		}
		// The write barrier: once Lock is held every in-flight Submit has
		// released RLock, so its enqueue (if any) happened-before the
		// close and no send can hit a closed channel.
		srv.stateMu.Lock()
		for _, s := range srv.shards {
			close(s.queue)
		}
		srv.stateMu.Unlock()
		srv.wg.Wait()

		var rep DrainReport
		rep.Degraded = srv.degraded.Load()
		for _, s := range srv.shards {
			rep.DrainedPages += s.drained
			if dp, ok := s.pol.(cache.DirtyPager); ok {
				rep.RemainingDirtyPages += int64(dp.DirtyPages())
			} else {
				rep.RemainingDirtyPages += int64(s.pol.Len())
			}
		}
		srv.met.queueDepth.Set(0)
		srv.met.overload.Set(stateRung(StateDraining))
		srv.report = rep
	})
	return srv.report
}

// Close is Drain for defer sites that ignore the report.
func (srv *Server) Close() { srv.Drain() }
