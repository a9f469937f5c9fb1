package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/sim"
)

// wireRef is the reference for the op wire body: the tagged struct
// whose encoding/json output appendWire must reproduce byte for byte,
// and whose json.Unmarshal must accept every body decodeWire accepts.
type wireRef struct {
	Outcome      string `json:"outcome"`
	Phase        string `json:"phase,omitempty"`
	Shard        int    `json:"shard"`
	QueueNs      int64  `json:"queue_ns"`
	ServiceNs    int64  `json:"service_ns"`
	WindowNs     int64  `json:"window_ns,omitempty"`
	SimLatencyNs int64  `json:"sim_latency_ns"`
	RetryAfterNs int64  `json:"retry_after_ns,omitempty"`
	Hits         int    `json:"hits"`
	Misses       int    `json:"misses"`
}

func toWire(r Response) wireRef {
	return wireRef{
		Outcome: r.Outcome.String(), Phase: r.Phase.String(), Shard: r.Shard,
		QueueNs: r.QueueNs, ServiceNs: r.ServiceNs, WindowNs: r.WindowNs,
		SimLatencyNs: r.SimLatencyNs,
		RetryAfterNs: r.RetryAfterNs, Hits: r.Hits, Misses: r.Misses,
	}
}

// refBody is what json.NewEncoder(w).Encode writes for r.
func refBody(t testing.TB, r Response) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(toWire(r)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wireCases spans every Outcome and Phase (and one value past each
// range, which String folds into "error" and "") against edge integers.
func wireCases() []Response {
	ints := []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64}
	var out []Response
	for o := OutcomeOK; o <= OutcomeError+1; o++ {
		for p := PhaseNone; p <= PhaseService+1; p++ {
			for k, v := range ints {
				// Optional fields alternate between the edge value and
				// zero, so both sides of every omitempty are covered.
				opt := v
				if k%2 == 1 {
					opt = 0
				}
				out = append(out, Response{
					Outcome: o, Phase: p, Shard: int(v),
					QueueNs: v, ServiceNs: -v, WindowNs: opt,
					SimLatencyNs: v, RetryAfterNs: opt,
					Hits: int(v), Misses: int(-v),
				})
			}
		}
	}
	return out
}

// TestWireBytesMatchJSON pins the server's op body to encoding/json's
// output for the reference struct, byte for byte (field order,
// omitempty, trailing newline), and decodes each body back to the
// response it came from.
func TestWireBytesMatchJSON(t *testing.T) {
	for _, r := range wireCases() {
		body := appendWire(nil, &r)
		if want := refBody(t, r); !bytes.Equal(body, want) {
			t.Fatalf("%+v:\n got %q\nwant %q", r, body, want)
		}
		var got Response
		if !decodeWire(body, &got) || got != onWire(r) {
			t.Fatalf("%q decodes to %+v, want %+v", body, got, onWire(r))
		}
	}
}

// onWire is r as a body carries it: out-of-range enums fold as String
// folds them, and SimBlame does not travel.
func onWire(r Response) Response {
	if r.Outcome > OutcomeError {
		r.Outcome = OutcomeError
	}
	if r.Phase > PhaseService {
		r.Phase = PhaseNone
	}
	r.SimBlame = sim.Blame{}
	return r
}

// TestDecodeWireStrict lists what the client's decoder takes and what it
// refuses. Every accepted body must also be accepted by encoding/json
// with the same fields.
func TestDecodeWireStrict(t *testing.T) {
	accept := map[string]Response{
		`{"outcome":"ok","shard":1,"queue_ns":2,"service_ns":3,"sim_latency_ns":4,"hits":5,"misses":6}` + "\n": {
			Shard: 1, QueueNs: 2, ServiceNs: 3, SimLatencyNs: 4, Hits: 5, Misses: 6},
		` { "misses" : 6 ,` + "\t\r\n" + `"outcome":"timeout" , "phase" : "queued" } `: {
			Outcome: OutcomeTimeout, Phase: PhaseQueued, Misses: 6},
		`{"outcome":"rejected","retry_after_ns":9223372036854775807,"window_ns":-9223372036854775808}`: {
			Outcome: OutcomeRejected, RetryAfterNs: math.MaxInt64, WindowNs: math.MinInt64},
		`{"outcome":"read-only","phase":"","hits":-0}`:    {Outcome: OutcomeReadOnly},
		`{"outcome":"error","phase":"service","shard":0}`: {Outcome: OutcomeError, Phase: PhaseService},
		`{"outcome":"draining"}`:                          {Outcome: OutcomeDraining},
	}
	for body, want := range accept {
		var got Response
		if !decodeWire([]byte(body), &got) {
			t.Errorf("%q refused", body)
			continue
		}
		if got != want {
			t.Errorf("%q: got %+v, want %+v", body, got, want)
		}
		var ref wireRef
		if err := json.Unmarshal([]byte(body), &ref); err != nil || ref != toWire(got) {
			t.Errorf("%q: encoding/json reads %+v (%v), decoder %+v", body, ref, err, toWire(got))
		}
	}
	refuse := []string{
		``, ` `, `null`, `[]`, `{}`, `"ok"`,
		`{"outcome":"ok"`,                                   // unterminated
		`{"outcome":"ok",}`,                                 // trailing comma
		`{"outcome":"ok"}x`,                                 // trailing bytes
		`{"outcome":"ok"}{}`,                                // second value
		`{"outcome" "ok"}`,                                  // missing colon
		`{"outcome":"ok" "hits":1}`,                         // missing comma
		`{"phase":"queued","hits":1}`,                       // no outcome
		`{"outcome":"OK"}`,                                  // unknown outcome
		`{"outcome":"ok","phase":"Queued"}`,                 // unknown phase
		`{"outcome":null}`,                                  // null
		`{"outcome":"ok","hits":null}`,                      // null
		`{"Outcome":"ok"}`,                                  // case-variant key
		`{"outcome":"ok","Hits":1}`,                         // case-variant key
		`{"outcome":"ok","extra":1}`,                        // unknown key
		`{"outcome":"ok","outcome":"ok"}`,                   // duplicate key
		`{"outcome":"ok","hits":1,"hits":1}`,                // duplicate key
		`{"\u006futcome":"ok"}`,                             // escaped key
		`{"outcome":"\u006fk"}`,                             // escaped value
		`{"outcome":"ok","hits":1.0}`,                       // fraction
		`{"outcome":"ok","hits":1e2}`,                       // exponent
		`{"outcome":"ok","hits":01}`,                        // leading zero
		`{"outcome":"ok","hits":-01}`,                       // leading zero
		`{"outcome":"ok","hits":-}`,                         // sign alone
		`{"outcome":"ok","hits":+1}`,                        // plus sign
		`{"outcome":"ok","hits":"1"}`,                       // quoted number
		`{"outcome":"ok","hits":true}`,                      // boolean
		`{"outcome":"ok","hits":{}}`,                        // object
		`{"outcome":1}`,                                     // number for a string
		`{"outcome":"ok","queue_ns":9223372036854775808}`,   // past MaxInt64
		`{"outcome":"ok","queue_ns":-9223372036854775809}`,  // past MinInt64
		`{"outcome":"ok","queue_ns":99999999999999999999}`,  // twenty digits
		`{"outcome":"ok","queue_ns":100000000000000000000}`, // twenty-one digits
		"\ufeff" + `{"outcome":"ok"}`,                       // byte order mark
	}
	for _, body := range refuse {
		var got Response
		if decodeWire([]byte(body), &got) {
			t.Errorf("%q accepted as %+v", body, got)
		}
	}
}

// TestClientRefusedBody: a body the decoder refuses is a
// "serve: <status>: <body>" error with an error outcome.
func TestClientRefusedBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		_, _ = w.Write([]byte(`{"outcome":"ok","hits":null}`))
	}))
	defer ts.Close()
	cl := &Client{Base: ts.URL, HTTP: ts.Client()}
	for _, write := range []bool{false, true} {
		r, err := cl.Submit(Op{Write: write, Pages: 1})
		want := `serve: 418 I'm a teapot: {"outcome":"ok","hits":null}`
		if err == nil || err.Error() != want || r.Outcome != OutcomeError {
			t.Fatalf("write=%v: got %v / %v, want %q", write, r.Outcome, err, want)
		}
	}
}

// TestWireCodecAllocs: the encoder, the decoder and the query scan run
// without allocating on the path every op takes.
func TestWireCodecAllocs(t *testing.T) {
	r := Response{Outcome: OutcomeTimeout, Phase: PhaseService, Shard: 1, QueueNs: 1234,
		ServiceNs: 5678, WindowNs: 9, SimLatencyNs: 91011, RetryAfterNs: 1, Hits: 3, Misses: 1}
	buf := make([]byte, 0, 256)
	body := appendWire(nil, &r)
	var got Response
	var lpn, pages, deadline string
	for name, f := range map[string]func(){
		"appendWire": func() { buf = appendWire(buf[:0], &r) },
		"decodeWire": func() { decodeWire(body, &got) },
		"opQuery":    func() { lpn, pages, deadline = opQuery("lpn=123456&pages=4&deadline_ns=2000000000") },
	} {
		if n := testing.AllocsPerRun(1000, f); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, n)
		}
	}
	if got != r || lpn != "123456" || pages != "4" || deadline != "2000000000" {
		t.Fatalf("decoded %+v, query %q %q %q", got, lpn, pages, deadline)
	}
}

// FuzzWireDecode: whatever the bytes, a body the decoder accepts is one
// encoding/json accepts too, with the same fields; and any response the
// server can write is written as encoding/json would and decodes back
// exactly.
func FuzzWireDecode(f *testing.F) {
	for _, r := range wireCases()[:12] {
		f.Add(appendWire(nil, &r), uint8(r.Outcome), uint8(r.Phase), r.QueueNs, r.WindowNs, r.RetryAfterNs)
	}
	f.Add([]byte(`{ "hits" : -0 , "outcome" : "shed" }`), uint8(6), uint8(1), int64(-1), int64(0), int64(7))
	f.Add([]byte(`{"outcome":"ok","hits":01}`), uint8(200), uint8(9), int64(math.MinInt64), int64(1), int64(0))
	f.Fuzz(func(t *testing.T, body []byte, o, p uint8, a, b, c int64) {
		var got Response
		if decodeWire(body, &got) {
			var ref wireRef
			if err := json.Unmarshal(body, &ref); err != nil {
				t.Fatalf("%q: decoder accepts, encoding/json refuses: %v", body, err)
			}
			if ref != toWire(got) {
				t.Fatalf("%q: encoding/json reads %+v, decoder %+v", body, ref, toWire(got))
			}
		}
		r := Response{Outcome: Outcome(o), Phase: Phase(p), Shard: int(a), QueueNs: b,
			ServiceNs: c, WindowNs: a, SimLatencyNs: b, RetryAfterNs: c, Hits: int(c), Misses: int(b)}
		own := appendWire(nil, &r)
		if want := refBody(t, r); !bytes.Equal(own, want) {
			t.Fatalf("%+v:\n got %q\nwant %q", r, own, want)
		}
		if !decodeWire(own, &got) || got != onWire(r) {
			t.Fatalf("%q decodes to %+v, want %+v", own, got, onWire(r))
		}
	})
}

// FuzzOpQuery: for any raw query, opQuery returns what url.ParseQuery
// followed by Get returns for lpn, pages and deadline_ns.
func FuzzOpQuery(f *testing.F) {
	for _, raw := range []string{
		"", "lpn=0", "lpn=12&pages=4&deadline_ns=500",
		"pages=2&lpn=7&lpn=8", "lpn&lpn=3", "lpn=%zz&lpn=4", "%zz=1&lpn=5",
		"lpn=1;pages=2&pages=3", "l%70n=9&p%61ges=%2B2&deadline%5Fns=1+2",
		"&&lpn=&pages=%20", "lpn=1=2&pages==3", "deadline_ns=-5&deadline_ns=6",
		"LPN=1&lpn+=2&lpn=3", "x=1&y=2&lpn=%41&pages=%", "lpn=%2", "lpn=+",
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		v, _ := url.ParseQuery(raw)
		lpn, pages, deadline := opQuery(raw)
		if lpn != v.Get("lpn") || pages != v.Get("pages") || deadline != v.Get("deadline_ns") {
			t.Fatalf("opQuery(%q) = %q, %q, %q; url.Values gives %q, %q, %q", raw,
				lpn, pages, deadline, v.Get("lpn"), v.Get("pages"), v.Get("deadline_ns"))
		}
	})
}
