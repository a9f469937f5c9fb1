package serve_test

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/ssd"
)

// fuzzEndpoints are the five /v1/* routes FuzzHTTPHandler picks from. The
// fuzzer chooses a route rather than a raw path: ServeMux answers a
// non-canonical path with a redirect before any handler runs.
var fuzzEndpoints = [...]string{"/v1/read", "/v1/write", "/v1/stats", "/v1/force-readonly", "/v1/drain"}

// fuzzDevice is a tiny fresh device, so each input's server builds fast.
func fuzzDevice(int) (*ssd.Device, error) {
	p := ssd.DefaultParams()
	p.Flash.BlocksPerPlane = 16
	p.Flash.PagesPerBlock = 16
	p.Precondition = 0
	return ssd.New(p)
}

// FuzzHTTPHandler sends one hostile request to a fresh one-shard server
// on a fake clock: any method, one of the five /v1/* endpoints, any raw
// query. The server must answer within two seconds with a documented
// status (200, 400, 405, 429, 503 or 504), and Drain must then return.
func FuzzHTTPHandler(f *testing.F) {
	f.Add("POST", uint8(1), "lpn=0&pages=4")
	f.Add("GET", uint8(0), "lpn=8&pages=2&deadline_ns=1")
	f.Add("GET", uint8(0), "lpn=1&pages=9223372036854775807")
	f.Add("POST", uint8(1), "lpn=3&pages=97")
	f.Add("POST", uint8(1), "lpn=-1")
	f.Add("PUT", uint8(1), "lpn=0")
	f.Add("GET", uint8(0), "lpn=0&deadline_ns=-5")
	f.Add("GET", uint8(2), "")
	f.Add("POST", uint8(3), "")
	f.Add("GET", uint8(3), "")
	f.Add("POST", uint8(4), "")
	f.Add("DELETE", uint8(4), "%zz&lpn=;")
	documented := map[int]bool{
		http.StatusOK: true, http.StatusBadRequest: true, http.StatusMethodNotAllowed: true,
		http.StatusTooManyRequests: true, http.StatusServiceUnavailable: true,
		http.StatusGatewayTimeout: true,
	}
	f.Fuzz(func(t *testing.T, method string, endpoint uint8, rawQuery string) {
		srv, err := serve.New(serve.Config{
			Shards: 1, TotalCapacityPages: 64,
			NewPolicy: lruPolicy, NewDevice: fuzzDevice,
			Now: func() int64 { return 0 },
		})
		if err != nil {
			t.Fatal(err)
		}
		path := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		req := &http.Request{
			Method: method,
			URL:    &url.URL{Path: path, RawQuery: rawQuery},
			Header: http.Header{},
			Host:   "ssdserve",
		}
		rec := httptest.NewRecorder()
		answered := make(chan struct{})
		go func() {
			defer close(answered)
			srv.HTTPHandler(nil).ServeHTTP(rec, req)
		}()
		select {
		case <-answered:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s %s?%s: no answer after 2s", method, path, rawQuery)
		}
		if !documented[rec.Code] {
			t.Fatalf("%s %s?%s: status %d, want a documented one (body %q)",
				method, path, rawQuery, rec.Code, rec.Body.String())
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			srv.Drain()
		}()
		select {
		case <-drained:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s %s?%s: Drain has not returned after 2s", method, path, rawQuery)
		}
	})
}
