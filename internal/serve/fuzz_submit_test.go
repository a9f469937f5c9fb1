package serve_test

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// The FuzzSubmitBounds server: two shards routing 64-page regions, each
// with a fixed 48-page write window and shedding off, so the window bound
// is one of the bounds Submit documents.
const (
	fuzzShards = 2
	fuzzRegion = 64
	fuzzWindow = 48
)

// clockReach bounds how far the fake clock, one nanosecond per reading,
// can advance within one FuzzSubmitBounds case. A zero deadline takes the
// server's default, math.MaxInt64/2, which lies beyond it too.
const clockReach = 1 << 32

// FuzzSubmitBounds submits three hostile ops at once, from three
// goroutines, to a fresh two-shard server on fuzzDevices. Each Submit must
// return within two seconds. It must error exactly when Submit's documented
// bounds reject the op, and otherwise answer with an outcome a healthy
// server gives, from the shard sim.RouteLPN names; a read whose deadline
// lies past the clock's reach must be served. Drain must then return,
// every device must pass CheckInvariants, and no goroutine may outlive the
// server.
//
// The fake clock ticks one nanosecond per reading and MaxWaitNs is one
// nanosecond, so a write that finds its window full times out at once
// instead of waiting for a slot that a stopped clock would never expire.
func FuzzSubmitBounds(f *testing.F) {
	probe, err := fuzzDevice(0)
	if err != nil {
		f.Fatal(err)
	}
	logical := probe.LogicalPages()
	seed := func(a, b, c serve.Op) {
		f.Add(a.Write, a.LPN, int64(a.Pages), a.DeadlineNs,
			b.Write, b.LPN, int64(b.Pages), b.DeadlineNs,
			c.Write, c.LPN, int64(c.Pages), c.DeadlineNs)
	}
	// The last logical page, alone and one page past it.
	seed(serve.Op{Write: true, LPN: logical - 1, Pages: 1},
		serve.Op{LPN: logical - 1, Pages: 1},
		serve.Op{Write: true, LPN: logical - 1, Pages: 2})
	// Spans ending exactly at the end, the last one past the window.
	seed(serve.Op{LPN: logical - 8, Pages: 8},
		serve.Op{Write: true, LPN: logical - fuzzWindow, Pages: fuzzWindow},
		serve.Op{Write: true, LPN: logical - fuzzWindow - 1, Pages: fuzzWindow + 1})
	// MaxInt64 pages, whose LPN+Pages sum overflows.
	seed(serve.Op{LPN: 1, Pages: math.MaxInt64},
		serve.Op{Write: true, Pages: math.MaxInt64},
		serve.Op{LPN: logical - 1, Pages: math.MaxInt64})
	// Negative LPN, pages and deadline.
	seed(serve.Op{LPN: -1, Pages: 1},
		serve.Op{Write: true, Pages: -5},
		serve.Op{LPN: 3, Pages: 1, DeadlineNs: -1})
	// Three writes racing for one shard's window, and short and huge
	// deadlines.
	seed(serve.Op{Write: true, Pages: 40},
		serve.Op{Write: true, LPN: 8, Pages: 40, DeadlineNs: 1},
		serve.Op{Write: true, LPN: 16, Pages: 40, DeadlineNs: math.MaxInt64})
	// Reads whose deadlines lie past the clock's reach: the sums with the
	// clock saturate instead of wrapping.
	seed(serve.Op{LPN: 5, Pages: 1, DeadlineNs: math.MaxInt64},
		serve.Op{LPN: 70, Pages: 2, DeadlineNs: math.MaxInt64 - 1},
		serve.Op{Write: true, LPN: 9, Pages: 1, DeadlineNs: math.MaxInt64})
	f.Fuzz(func(t *testing.T,
		write0 bool, lpn0, pages0, deadline0 int64,
		write1 bool, lpn1, pages1, deadline1 int64,
		write2 bool, lpn2, pages2, deadline2 int64) {
		leakcheck.Check(t)
		ops := [3]serve.Op{
			{Write: write0, LPN: lpn0, Pages: int(pages0), DeadlineNs: deadline0},
			{Write: write1, LPN: lpn1, Pages: int(pages1), DeadlineNs: deadline1},
			{Write: write2, LPN: lpn2, Pages: int(pages2), DeadlineNs: deadline2},
		}
		var clock atomic.Int64
		devs := make([]*ssd.Device, fuzzShards)
		srv, err := serve.New(serve.Config{
			Shards: fuzzShards, TotalCapacityPages: 64, TenantRegionPages: fuzzRegion,
			WriteWindowPages: fuzzWindow, MaxWaitNs: 1, DefaultDeadlineNs: math.MaxInt64 / 2,
			NewPolicy: lruPolicy,
			NewDevice: func(k int) (*ssd.Device, error) {
				d, err := fuzzDevice(k)
				devs[k] = d
				return d, err
			},
			Now: func() int64 { return clock.Add(1) },
		})
		if err != nil {
			t.Fatal(err)
		}

		type answer struct {
			resp serve.Response
			err  error
		}
		var answers [3]chan answer
		start := make(chan struct{})
		for i, op := range ops {
			answers[i] = make(chan answer, 1)
			go func() {
				<-start
				resp, err := srv.Submit(op)
				answers[i] <- answer{resp, err}
			}()
		}
		close(start)
		timeout := time.After(2 * time.Second)
		for i, op := range ops {
			var a answer
			select {
			case a = <-answers[i]:
			case <-timeout:
				t.Fatalf("Submit(%+v) has not returned after 2s", op)
			}
			if want := rejects(op, logical); (a.err != nil) != want {
				t.Fatalf("Submit(%+v): error %v, want an error: %v", op, a.err, want)
			}
			if a.err != nil {
				continue
			}
			switch a.resp.Outcome {
			case serve.OutcomeOK, serve.OutcomeRejected, serve.OutcomeTimeout:
			default:
				t.Fatalf("Submit(%+v): outcome %v", op, a.resp.Outcome)
			}
			if !op.Write && (op.DeadlineNs == 0 || op.DeadlineNs > clockReach) && a.resp.Outcome != serve.OutcomeOK {
				t.Fatalf("Submit(%+v): outcome %v, want ok: the deadline lies past the clock's reach", op, a.resp.Outcome)
			}
			if k := sim.RouteLPN(op.LPN, nil, fuzzRegion, fuzzShards); a.resp.Shard != k {
				t.Fatalf("Submit(%+v): answered by shard %d, routed to %d", op, a.resp.Shard, k)
			}
		}

		drained := make(chan struct{})
		go func() {
			defer close(drained)
			srv.Drain()
		}()
		select {
		case <-drained:
		case <-time.After(2 * time.Second):
			t.Fatalf("%+v: Drain has not returned after 2s", ops)
		}
		for k, d := range devs {
			if err := d.CheckInvariants(); err != nil {
				t.Fatalf("%+v: shard %d: %v", ops, k, err)
			}
		}
	})
}

// rejects reports whether Submit's documented bounds refuse op: at least
// one page, the span inside the logical space, a deadline that is not
// negative, and a write no larger than the window when shedding is off.
// The span check never forms LPN+Pages, which overflows.
func rejects(op serve.Op, logical int64) bool {
	switch {
	case op.Pages < 1 || op.DeadlineNs < 0:
		return true
	case op.LPN < 0 || op.LPN >= logical || int64(op.Pages) > logical-op.LPN:
		return true
	}
	return op.Write && op.Pages > fuzzWindow
}
