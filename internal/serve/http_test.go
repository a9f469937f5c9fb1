package serve_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
)

// TestHTTPRoundTrip drives the service API end to end over a real
// listener: reads and writes through serve.Client, stats, the obs-plane
// fallthrough (/healthz, /metrics), force-readonly, and drain — with the
// status codes the ladder maps to.
func TestHTTPRoundTrip(t *testing.T) {
	leakcheck.Check(t)
	tel := obs.New()
	srv, err := serve.New(serve.Config{
		Shards: 2, Sharing: sim.SharingEqual, TotalCapacityPages: 64,
		DefaultDeadlineNs: int64(time.Minute),
		NewPolicy:         lruPolicy, NewDevice: testDevice,
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(srv.HTTPHandler(tel.Handler()))
	defer ts.Close()
	cl := &serve.Client{Base: ts.URL, HTTP: ts.Client()}

	// Writes then reads round-trip with full latency accounting.
	for i := 0; i < 8; i++ {
		r, err := cl.Submit(serve.Op{Write: true, LPN: int64(i * 4), Pages: 4})
		if err != nil {
			t.Fatal(err)
		}
		if r.Outcome != serve.OutcomeOK || r.SimLatencyNs <= 0 {
			t.Fatalf("write %d: outcome %v latency %d", i, r.Outcome, r.SimLatencyNs)
		}
	}
	r, err := cl.Submit(serve.Op{LPN: 0, Pages: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome != serve.OutcomeOK || r.Hits == 0 {
		t.Fatalf("read outcome %v hits %d, want ok with cache hits", r.Outcome, r.Hits)
	}

	// Stats exposes the tallies as JSON.
	var st serve.Stats
	getJSON(t, ts.Client(), ts.URL+"/v1/stats", http.StatusOK, &st)
	if st.Accepted != 9 {
		t.Fatalf("stats accepted %d, want 9", st.Accepted)
	}

	// The obs plane rides behind the service mux.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d, want 200", resp.StatusCode)
	}

	// Bad input is a 400, not a panic or a silent zero op.
	resp, err = ts.Client().Get(ts.URL + "/v1/read?lpn=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad lpn status %d, want 400", resp.StatusCode)
	}

	// GET on /v1/write is refused: writes mutate.
	resp, err = ts.Client().Get(ts.URL + "/v1/write?lpn=0&pages=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET write status %d, want 405", resp.StatusCode)
	}

	// Admin read-only: writes turn 503/read-only, reads keep working.
	resp, err = ts.Client().Post(ts.URL+"/v1/force-readonly", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("force-readonly status %d, want 200", resp.StatusCode)
	}
	if r, err = cl.Submit(serve.Op{Write: true, LPN: 0, Pages: 1}); err != nil || r.Outcome != serve.OutcomeReadOnly {
		t.Fatalf("post-readonly write: %v/%v, want read-only", r.Outcome, err)
	}
	if r, err = cl.Submit(serve.Op{LPN: 0, Pages: 1}); err != nil || r.Outcome != serve.OutcomeOK {
		t.Fatalf("post-readonly read: %v/%v, want ok", r.Outcome, err)
	}

	// Drain over the API returns the report and closes intake.
	var drain struct {
		Degraded bool `json:"degraded"`
	}
	postJSON(t, ts.Client(), ts.URL+"/v1/drain", http.StatusOK, &drain)
	if !drain.Degraded {
		t.Fatal("drain report after force-readonly not degraded")
	}
	if r, err = cl.Submit(serve.Op{LPN: 0, Pages: 1}); err != nil || r.Outcome != serve.OutcomeDraining {
		t.Fatalf("post-drain read: %v/%v, want draining", r.Outcome, err)
	}
}

func getJSON(t *testing.T, c *http.Client, url string, wantStatus int, v any) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func postJSON(t *testing.T, c *http.Client, url string, wantStatus int, v any) {
	t.Helper()
	resp, err := c.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestStatsExposeRungAndQueueDepth pins the overload-ladder rung and
// admission queue depth as raw /v1/stats JSON keys: dashboards scrape
// these by name, so renaming them is a breaking change. The flight
// recorder's /debug/flightrec endpoint rides the same obs fallthrough.
func TestStatsExposeRungAndQueueDepth(t *testing.T) {
	leakcheck.Check(t)
	tel := obs.New()
	fr := obs.NewFlightRecorder(2, 64, "")
	srv, err := serve.New(serve.Config{
		Shards: 2, Sharing: sim.SharingEqual, TotalCapacityPages: 64,
		DefaultDeadlineNs: int64(time.Minute),
		NewPolicy:         lruPolicy, NewDevice: testDevice,
		Telemetry: tel, FlightRecorder: fr,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.HTTPHandler(tel.Handler()))
	defer ts.Close()
	cl := &serve.Client{Base: ts.URL, HTTP: ts.Client()}

	if _, err := cl.Submit(serve.Op{Write: true, LPN: 0, Pages: 4}); err != nil {
		t.Fatal(err)
	}

	// Decode into a raw map so the assertion is on the wire names, not on
	// the Go struct tags staying in sync with themselves.
	var raw map[string]any
	getJSON(t, ts.Client(), ts.URL+"/v1/stats", http.StatusOK, &raw)
	rung, ok := raw["rung"].(float64)
	if !ok {
		t.Fatalf("stats JSON missing numeric \"rung\": %v", raw)
	}
	if rung != 0 {
		t.Fatalf("idle rung = %v, want 0", rung)
	}
	if _, ok := raw["queue_depth"].(float64); !ok {
		t.Fatalf("stats JSON missing numeric \"queue_depth\": %v", raw)
	}

	// Escalation is visible in the same field: read-only is rung 4.
	postJSON(t, ts.Client(), ts.URL+"/v1/force-readonly", http.StatusOK, &struct{}{})
	if _, err := cl.Submit(serve.Op{Write: true, LPN: 0, Pages: 1}); err != nil {
		t.Fatal(err)
	}
	getJSON(t, ts.Client(), ts.URL+"/v1/stats", http.StatusOK, &raw)
	if raw["rung"].(float64) != 4 || raw["state"].(string) != serve.StateReadOnly {
		t.Fatalf("post-readonly rung/state = %v/%v, want 4/%s",
			raw["rung"], raw["state"], serve.StateReadOnly)
	}

	// The flight recorder is reachable on the obs fallthrough and has
	// recorded the engine traffic.
	resp, err := ts.Client().Get(ts.URL + "/debug/flightrec")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/flightrec status %d, want 200", resp.StatusCode)
	}
	var n int
	sc := json.NewDecoder(resp.Body)
	for sc.More() {
		var rec map[string]any
		if err := sc.Decode(&rec); err != nil {
			t.Fatalf("flightrec NDJSON: %v", err)
		}
		n++
	}
	if n == 0 {
		t.Fatal("flight recorder snapshot empty after served traffic")
	}
	srv.Drain()
}

// BenchmarkHTTPSubmit times one op through serve.Client over one
// loopback keep-alive connection to an httptest server, beside the same
// op submitted in process, so the HTTP edge's cost per op is the
// difference between the two. Ops are 4 pages, one write in four. It is a
// measuring tool with no baseline:
//
//	go test -run '^$' -bench HTTPSubmit -benchmem ./internal/serve
func BenchmarkHTTPSubmit(b *testing.B) {
	srv, err := serve.New(serve.Config{
		Shards: 1, TotalCapacityPages: 256,
		DefaultDeadlineNs: int64(time.Minute),
		NewPolicy:         lruPolicy, NewDevice: testDevice,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.HTTPHandler(nil))
	defer ts.Close()
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	for _, s := range []struct {
		name string
		sub  interface {
			Submit(serve.Op) (serve.Response, error)
		}
	}{
		{"inproc", srv},
		{"http", &serve.Client{Base: ts.URL, HTTP: &http.Client{Transport: tr}}},
	} {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op := serve.Op{Write: i%4 == 0, LPN: int64(i%512) * 4, Pages: 4}
				if r, err := s.sub.Submit(op); err != nil || r.Outcome != serve.OutcomeOK {
					b.Fatalf("op %d: %v / %v", i, r.Outcome, err)
				}
			}
		})
	}
}
