package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// ctrl marks out-of-band control operations that ride the admission queue
// so they execute on the shard worker (the device is single-threaded).
type ctrl uint8

const (
	ctrlNone ctrl = iota
	// ctrlForceReadOnly pushes the device into degraded read-only mode.
	ctrlForceReadOnly
)

// work is one queued request plus its admission bookkeeping. Exactly one
// Response is sent on done for every work that enters a queue; the channel
// is buffered so an abandoned waiter never blocks the worker.
type work struct {
	op        Op
	ctrl      ctrl
	bypass    bool  // admitted as write-around shed
	reserved  bool  // holds a write-window reservation
	deadline  int64 // absolute server-clock ns; always > 0 for client ops
	submitted int64
	dequeued  int64
	windowNs  int64 // time blocked in waitWindow (0 on immediate reserve)
	done      chan Response
}

// shard is one partition: a bounded admission queue in front of a
// dedicated sim.Engine whose trace source is the queue itself.
type shard struct {
	id    int
	srv   *Server
	pol   cache.Policy
	dev   *ssd.Device
	eng   *sim.Engine
	idler cache.IdleEvictor
	queue chan *work

	// mu guards the write-window accounting; cond wakes window waiters
	// whenever capacity may have freed (after every engine result).
	mu          sync.Mutex
	cond        *sync.Cond
	window      int64 // DRAM free-slot window in pages
	cached      int64 // mirror of pol.Len(), refreshed after each result
	queuedWrite int64 // pages holding window reservations

	// Worker-goroutine-only state.
	pending *work   // request currently inside the engine
	lastT   int64   // issue-time monotonizer for the device timeline
	scratch []int64 // LPN expansion buffer for direct device ops
	drained int64   // pages destaged during Drain

	simNow  atomic.Int64 // latest simulated completion time
	svcEWMA atomic.Int64 // smoothed wall service time, drives retry hints
	failed  atomic.Bool  // engine error (not degradation)
}

// admit runs the overload ladder for one request. Called with the
// server's stateMu read-held; returns either a final front-door response
// or enqueued=true, in which case the worker owns the response.
func (s *shard) admit(w *work) (resp Response, enqueued bool) {
	srv := s.srv
	if w.op.Write {
		if srv.degraded.Load() {
			return srv.count(Response{Outcome: OutcomeReadOnly, Shard: s.id}), false
		}
		if !s.tryReserve(int64(w.op.Pages)) {
			if srv.cfg.Shed {
				// Rung 1: no DRAM slot — write around the cache.
				w.bypass = true
			} else if r, ok := s.waitWindow(w); !ok {
				return r, false
			}
		} else {
			w.reserved = true
		}
	}
	select {
	case s.queue <- w:
		srv.depth.Add(1)
		srv.met.queueDepth.Set(srv.depth.Load())
		return Response{}, true
	default:
		// Rung 2: queue full — turn away with a backoff hint.
		s.settle(w)
		return srv.count(Response{
			Outcome: OutcomeRejected, Shard: s.id, RetryAfterNs: s.retryHint(),
		}), false
	}
}

// tryReserve claims window pages if the write fits right now.
func (s *shard) tryReserve(pages int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cached+s.queuedWrite+pages > s.window {
		return false
	}
	s.queuedWrite += pages
	return true
}

// waitWindow blocks the submitter until a DRAM slot frees, the deadline
// (or MaxWaitNs) expires, or the server leaves normal service — MQSim's
// waiting_user_requests_queue_for_dram_free_slot, with a timeout. The
// expiry counts as a queued-phase deadline: the request never entered
// service.
func (s *shard) waitWindow(w *work) (Response, bool) {
	srv := s.srv
	srv.met.windowWaits.Inc()
	limit := w.deadline
	if c := after(w.submitted, srv.cfg.MaxWaitNs); c < limit {
		limit = c
	}
	if srv.cfg.Now == nil {
		// Real clock: arrange a wake-up at the limit. The lock-step in the
		// callback orders the broadcast after a waiter's check-then-Wait.
		t := time.AfterFunc(time.Duration(limit-srv.now()), func() {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		defer t.Stop()
	}
	pages := int64(w.op.Pages)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if srv.draining.Load() {
			return srv.count(Response{Outcome: OutcomeDraining, Shard: s.id}), false
		}
		if srv.degraded.Load() {
			return srv.count(Response{Outcome: OutcomeReadOnly, Shard: s.id}), false
		}
		if s.cached+s.queuedWrite+pages <= s.window {
			s.queuedWrite += pages
			w.reserved = true
			w.windowNs = srv.now() - w.submitted
			return Response{}, true
		}
		if now := srv.now(); now >= limit {
			return srv.count(Response{
				Outcome: OutcomeTimeout, Phase: PhaseQueued, Shard: s.id,
				QueueNs: now - w.submitted,
			}), false
		}
		s.cond.Wait()
	}
}

// settle releases a window reservation (for work that never reaches the
// engine: rejects, queued timeouts, degraded-mode writes).
func (s *shard) settle(w *work) {
	if !w.reserved {
		return
	}
	w.reserved = false
	s.mu.Lock()
	s.queuedWrite -= int64(w.op.Pages)
	s.mu.Unlock()
	s.cond.Broadcast()
}

// settleResult refreshes the cached-pages mirror from the policy and
// releases the reservation in one step, after the engine finished a
// request. Runs on the worker goroutine, where pol is safe to read.
func (s *shard) settleResult(w *work) {
	s.mu.Lock()
	s.cached = int64(s.pol.Len())
	if w.reserved {
		w.reserved = false
		s.queuedWrite -= int64(w.op.Pages)
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// retryHint estimates how long a rejected client should back off: the
// queue's drain time at the smoothed service rate, clamped to [1ms, 5s].
func (s *shard) retryHint() int64 {
	per := s.svcEWMA.Load()
	if per < int64(time.Millisecond) {
		per = int64(time.Millisecond)
	}
	hint := int64(len(s.queue)+1) * per
	if max := int64(5 * time.Second); hint > max {
		hint = max
	}
	return hint
}

// noteDequeue maintains the global queue-depth accounting.
func (s *shard) noteDequeue() {
	d := s.srv.depth.Add(-1)
	s.srv.met.queueDepth.Set(d)
}

// respond finalizes and delivers one response. Every work item gets
// exactly one respond call.
func (s *shard) respond(w *work, resp Response) {
	resp.Shard = s.id
	w.done <- s.srv.count(resp)
}

// issueTime maps "now" onto the shard's device timeline, kept strictly
// increasing so the single-threaded device never sees time move backward.
func (s *shard) issueTime() int64 {
	t := s.srv.now()
	if t <= s.lastT {
		t = s.lastT + 1
	}
	s.lastT = t
	return t
}

// expand rewrites an op's page span as explicit LPNs for direct device
// calls (bypass flushes, degraded-mode reads).
func (s *shard) expand(op Op) []int64 {
	s.scratch = s.scratch[:0]
	for i := 0; i < op.Pages; i++ {
		s.scratch = append(s.scratch, op.LPN+int64(i))
	}
	return s.scratch
}

// pace sleeps the worker while simulated device time runs ahead of the
// wall clock, making the simulated device the genuine bottleneck.
func (s *shard) pace() {
	if !s.srv.pace {
		return
	}
	if ahead := s.simNow.Load() - s.srv.now(); ahead > paceSlackNs {
		time.Sleep(time.Duration(ahead - paceSlackNs))
	}
}

// liveSource adapts the admission queue to trace.Source: the engine's
// next request is the next queued client op. Bypass, control, and expired
// work is handled here — on the engine's own goroutine, so direct device
// calls never race the engine's.
type liveSource struct {
	s    *shard
	name string
}

func (ls *liveSource) Name() string { return ls.name }
func (ls *liveSource) Err() error   { return nil }

func (ls *liveSource) Next() (trace.Request, bool) {
	s := ls.s
	for {
		// A degraded device ends the engine run gracefully; the worker
		// takes over the queue in degradedLoop. Checked before the pop so
		// no request is half-consumed by a dead engine.
		if s.dev.Degraded() {
			return trace.Request{}, false
		}
		s.pace()
		var w *work
		var ok bool
		if b := s.srv.cfg.GCBudgetNs; b > 0 {
			select {
			case w, ok = <-s.queue:
			default:
				// Queue-empty signal: the shard has no work, so spend one
				// budgeted slice of preemptible GC on the worker goroutine
				// (which owns the single-threaded device), then block for
				// the next request. The scheduler preempts itself within
				// the budget, so a request arriving mid-slice waits at most
				// one GC step, not a whole victim collection.
				s.scheduleGC(b)
				w, ok = <-s.queue
			}
		} else {
			w, ok = <-s.queue
		}
		if !ok {
			return trace.Request{}, false
		}
		s.noteDequeue()
		now := s.srv.now()
		w.dequeued = now
		if w.ctrl == ctrlForceReadOnly {
			s.dev.ForceReadOnly()
			s.srv.setDegraded()
			s.respond(w, Response{Outcome: OutcomeOK})
			continue
		}
		if now > w.deadline {
			s.settle(w)
			s.srv.flightDeadline(s.id, PhaseQueued, now-w.deadline)
			s.respond(w, Response{
				Outcome: OutcomeTimeout, Phase: PhaseQueued, QueueNs: now - w.submitted,
				WindowNs: w.windowNs,
			})
			continue
		}
		// Defense in depth behind Submit's validation: a span the engine
		// would skip (PageSpan count 0) never fires OnResult, which would
		// orphan s.pending and hang the waiter — answer with an error
		// instead of handing it to the engine or the expand loop.
		if w.op.Pages < 1 || int64(w.op.Pages) > s.srv.logical ||
			w.op.LPN < 0 || w.op.LPN > s.srv.logical-int64(w.op.Pages) {
			s.settle(w)
			s.respond(w, Response{Outcome: OutcomeError, QueueNs: now - w.submitted})
			continue
		}
		if w.bypass {
			s.bypassFlush(w)
			continue
		}
		s.pending = w
		t := s.issueTime()
		ps := s.dev.PageSize()
		return trace.Request{
			Time: t, Write: w.op.Write,
			Offset: w.op.LPN * ps, Size: int64(w.op.Pages) * ps,
		}, true
	}
}

// scheduleGC grants the shard device one budgeted preemptible-GC slice at
// the next device-timeline instant. Worker-goroutine only: the engine is
// blocked inside Next while this runs, so the device is never shared.
func (s *shard) scheduleGC(budgetNs int64) {
	t := s.issueTime()
	n := s.dev.ScheduleGC(t, budgetNs)
	s.srv.met.gcSlices.Inc()
	s.srv.met.gcVictims.Add(int64(n))
}

// bypassFlush is ladder rung 1 executed: the shed write streams straight
// to flash, leaving DRAM untouched. In this simulator data contents are
// not modeled, so a stale cached copy of a bypassed page is only an extra
// eventual flash write, not a correctness hazard (docs/SERVICE.md).
func (s *shard) bypassFlush(w *work) {
	t := s.issueTime()
	lpns := s.expand(w.op)
	bt, err := s.dev.FlushStriped(t, lpns)
	if err != nil {
		if errors.Is(err, fault.ErrReadOnly) {
			s.srv.setDegraded()
			s.respond(w, Response{Outcome: OutcomeReadOnly, QueueNs: w.dequeued - w.submitted})
			return
		}
		s.failed.Store(true)
		s.respond(w, Response{Outcome: OutcomeError, QueueNs: w.dequeued - w.submitted})
		return
	}
	if bt.Transferred > s.lastT {
		s.lastT = bt.Transferred
	}
	if bt.Transferred > s.simNow.Load() {
		s.simNow.Store(bt.Transferred)
	}
	s.srv.met.shedPages.Add(int64(len(lpns)))
	now := s.srv.now()
	s.respond(w, Response{
		Outcome: OutcomeShed,
		QueueNs: w.dequeued - w.submitted, ServiceNs: now - w.dequeued,
		SimLatencyNs: bt.Transferred - t,
	})
}

// shardObserver turns engine completions back into client responses.
type shardObserver struct {
	sim.NopObserver
	s *shard
}

func (o *shardObserver) OnResult(_ *sim.Engine, ev *sim.ResultEvent) {
	s := o.s
	w := s.pending
	if w == nil {
		return
	}
	s.pending = nil
	if ev.Completion > s.simNow.Load() {
		s.simNow.Store(ev.Completion)
	}
	now := s.srv.now()
	svc := now - w.dequeued
	old := s.svcEWMA.Load()
	s.svcEWMA.Store(old - old/8 + svc/8)
	resp := Response{
		Outcome: OutcomeOK,
		QueueNs: w.dequeued - w.submitted, ServiceNs: svc,
		WindowNs:     w.windowNs,
		SimLatencyNs: ev.Completion - ev.Req.Issue,
		SimBlame:     ev.Blame,
		Hits:         ev.Res.Hits, Misses: ev.Res.Misses,
	}
	// A deadline that died inside the engine — typically stalled behind a
	// destage flush or back-pressure admission — is a service-phase
	// timeout: the work was done, but too late.
	if now > w.deadline {
		resp.Outcome = OutcomeTimeout
		resp.Phase = PhaseService
		s.srv.flightDeadline(s.id, PhaseService, now-w.deadline)
	}
	s.settleResult(w)
	s.respond(w, resp)
}

// run is the shard worker: one engine run over the live queue, then
// whichever epilogue the ending calls for. Exits only when the queue is
// closed (Drain) and empty.
func (s *shard) run() {
	defer s.srv.wg.Done()
	_, err := s.eng.Run()
	if w := s.pending; w != nil {
		// The engine stopped mid-dispatch without an OnResult — the
		// request that tripped read-only mode (or an engine error) never
		// completed. Answer it here so no client hangs.
		s.pending = nil
		s.settle(w)
		now := s.srv.now()
		resp := Response{QueueNs: w.dequeued - w.submitted, ServiceNs: now - w.dequeued}
		if err == nil && s.dev.Degraded() {
			resp.Outcome = OutcomeReadOnly
		} else {
			resp.Outcome = OutcomeError
		}
		s.respond(w, resp)
	}
	switch {
	case err != nil:
		s.failed.Store(true)
		s.failLoop()
	case s.dev.Degraded():
		s.srv.setDegraded()
		s.degradedLoop()
	default:
		s.destageDrain()
	}
}

// degradedLoop serves the queue after the device went read-only: reads
// come straight from flash, writes are refused, deadlines still apply.
// Ladder rung 3, running until Drain closes the queue.
func (s *shard) degradedLoop() {
	for w := range s.queue {
		s.noteDequeue()
		now := s.srv.now()
		w.dequeued = now
		s.settle(w)
		switch {
		case w.ctrl == ctrlForceReadOnly:
			s.respond(w, Response{Outcome: OutcomeOK})
		case now > w.deadline:
			s.srv.flightDeadline(s.id, PhaseQueued, now-w.deadline)
			s.respond(w, Response{
				Outcome: OutcomeTimeout, Phase: PhaseQueued, QueueNs: now - w.submitted,
			})
		case w.op.Write:
			s.respond(w, Response{Outcome: OutcomeReadOnly, QueueNs: now - w.submitted})
		default:
			t := s.issueTime()
			done, err := s.dev.ReadPages(t, s.expand(w.op))
			if err != nil {
				s.failed.Store(true)
				s.respond(w, Response{Outcome: OutcomeError, QueueNs: now - w.submitted})
				continue
			}
			if done > s.simNow.Load() {
				s.simNow.Store(done)
			}
			s.respond(w, Response{
				Outcome: OutcomeOK, QueueNs: now - w.submitted,
				ServiceNs: s.srv.now() - now, SimLatencyNs: done - t,
			})
		}
	}
}

// failLoop answers the queue with errors after a hard engine failure, so
// clients never hang on a dead shard. Runs until Drain closes the queue.
func (s *shard) failLoop() {
	for w := range s.queue {
		s.noteDequeue()
		now := s.srv.now()
		w.dequeued = now
		s.settle(w)
		s.respond(w, Response{Outcome: OutcomeError, QueueNs: now - w.submitted})
	}
}

// destageDrain is the clean-shutdown epilogue: push the dirty buffer out
// to flash so a post-drain power-off loses nothing. Runs after the engine
// consumed every queued request. Policies that cannot nominate idle
// victims keep their pages; the remainder is reported in DrainReport.
func (s *shard) destageDrain() {
	if s.idler == nil {
		return
	}
	t := s.simNow.Load()
	if t < s.lastT {
		t = s.lastT
	}
	t++
	for {
		ev, ok := s.idler.EvictIdle(t)
		if !ok || len(ev.LPNs) == 0 {
			break
		}
		bt, err := s.dev.FlushStriped(t, ev.LPNs)
		if err != nil {
			// Degradation mid-drain: the remaining dirty pages stay
			// buffered and show up in DrainReport.RemainingDirtyPages.
			if errors.Is(err, fault.ErrReadOnly) {
				s.srv.setDegraded()
			} else {
				s.failed.Store(true)
			}
			break
		}
		s.drained += int64(len(ev.LPNs))
		t = bt.Transferred
	}
	s.srv.met.drainedPages.Add(s.drained)
}
