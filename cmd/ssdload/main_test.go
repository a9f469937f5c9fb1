package main

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestTargetClientReusesConnections runs two rounds of concurrent ops
// through the -target client against a server that holds each op until
// the whole round has arrived, so every round needs one connection per
// op. The second round must find them idle. A connection goes back to the
// idle pool on the transport's own goroutine just after its op returns,
// so the round may start before the last few are back and dial for them;
// http.DefaultClient keeps two and dials ops-2.
func TestTargetClientReusesConnections(t *testing.T) {
	const ops = 16
	var round atomic.Pointer[chan struct{}]
	var arrived atomic.Int32
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		release := *round.Load()
		if arrived.Add(1)%ops == 0 {
			close(release)
		}
		select {
		case <-release:
		case <-time.After(10 * time.Second):
			t.Error("round never filled: fewer connections than ops in flight")
		}
		_, _ = w.Write([]byte(`{"outcome":"ok","shard":0,"queue_ns":0,"service_ns":0,"sim_latency_ns":0,"hits":0,"misses":0}` + "\n"))
	}))
	var dials atomic.Int32
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	cl := targetClient(ts.URL+"/", ops)
	defer cl.HTTP.CloseIdleConnections()
	var perRound [2]int32
	for r := range perRound {
		before := dials.Load()
		release := make(chan struct{})
		round.Store(&release)
		var wg sync.WaitGroup
		for i := 0; i < ops; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := cl.Submit(serve.Op{Write: i%2 == 0, LPN: int64(i), Pages: 1})
				if err != nil || resp.Outcome != serve.OutcomeOK {
					t.Errorf("op %d: %v / %v", i, resp.Outcome, err)
				}
			}(i)
		}
		wg.Wait()
		perRound[r] = dials.Load() - before
	}
	if perRound[0] != ops || perRound[1] > ops/4 {
		t.Fatalf("new connections per round of %d concurrent ops: %v, want %d then at most %d",
			ops, perRound, ops, ops/4)
	}
}
