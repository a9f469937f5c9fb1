package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
)

// The op wire body. /v1/read and /v1/write answer with one flat JSON
// object and a newline, its fields always in this order:
//
//	{"outcome":"ok","phase":"queued","shard":0,"queue_ns":0,"service_ns":0,
//	 "window_ns":0,"sim_latency_ns":0,"retry_after_ns":0,"hits":0,"misses":0}
//
// outcome and phase are the String() forms of Outcome and Phase, so the
// body reads the same as the stats and logs. phase is left out when
// empty, window_ns and retry_after_ns when zero. These are the bytes
// encoding/json writes for the equivalent tagged struct (the tests keep
// it as the reference), so any JSON client reads the body. appendWire
// writes it; decodeWire, the parser behind Client, accepts nothing else.

// appendWire appends r's wire body to b.
func appendWire(b []byte, r *Response) []byte {
	b = append(b, `{"outcome":"`...)
	b = append(b, r.Outcome.String()...)
	b = append(b, '"')
	if p := r.Phase.String(); p != "" {
		b = append(b, `,"phase":"`...)
		b = append(b, p...)
		b = append(b, '"')
	}
	b = strconv.AppendInt(append(b, `,"shard":`...), int64(r.Shard), 10)
	b = strconv.AppendInt(append(b, `,"queue_ns":`...), r.QueueNs, 10)
	b = strconv.AppendInt(append(b, `,"service_ns":`...), r.ServiceNs, 10)
	if r.WindowNs != 0 {
		b = strconv.AppendInt(append(b, `,"window_ns":`...), r.WindowNs, 10)
	}
	b = strconv.AppendInt(append(b, `,"sim_latency_ns":`...), r.SimLatencyNs, 10)
	if r.RetryAfterNs != 0 {
		b = strconv.AppendInt(append(b, `,"retry_after_ns":`...), r.RetryAfterNs, 10)
	}
	b = strconv.AppendInt(append(b, `,"hits":`...), int64(r.Hits), 10)
	b = strconv.AppendInt(append(b, `,"misses":`...), int64(r.Misses), 10)
	return append(b, "}\n"...)
}

// decodeWire parses a wire body into r and reports whether it was one.
// It is strict: a single object holding "outcome" and any of the other
// nine keys, each at most once, in any order, with JSON whitespace
// between tokens; string values without escapes that name an Outcome or
// a Phase; integers without fraction, exponent or leading zero that fit
// their field. Anything else, null and case-variant keys included, is
// refused.
func decodeWire(b []byte, r *Response) bool {
	*r = Response{}
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	var seen uint16 // one bit per key, in wire order
	for {
		key, j, ok := wireString(b, skipSpace(b, i+1))
		if !ok {
			return false
		}
		if j = skipSpace(b, j); j == len(b) || b[j] != ':' {
			return false
		}
		j = skipSpace(b, j+1)
		var bit uint16
		switch string(key) {
		case "outcome":
			bit = 1 << 0
			r.Outcome, j, ok = wireEnum(b, j, OutcomeError)
		case "phase":
			bit = 1 << 1
			r.Phase, j, ok = wireEnum(b, j, PhaseService)
		case "shard":
			bit = 1 << 2
			j, ok = wireNum(b, j, &r.Shard)
		case "queue_ns":
			bit = 1 << 3
			j, ok = wireNum(b, j, &r.QueueNs)
		case "service_ns":
			bit = 1 << 4
			j, ok = wireNum(b, j, &r.ServiceNs)
		case "window_ns":
			bit = 1 << 5
			j, ok = wireNum(b, j, &r.WindowNs)
		case "sim_latency_ns":
			bit = 1 << 6
			j, ok = wireNum(b, j, &r.SimLatencyNs)
		case "retry_after_ns":
			bit = 1 << 7
			j, ok = wireNum(b, j, &r.RetryAfterNs)
		case "hits":
			bit = 1 << 8
			j, ok = wireNum(b, j, &r.Hits)
		case "misses":
			bit = 1 << 9
			j, ok = wireNum(b, j, &r.Misses)
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if i = skipSpace(b, j); i == len(b) {
			return false
		}
		if b[i] == '}' {
			return seen&1 != 0 && skipSpace(b, i+1) == len(b)
		}
		if b[i] != ',' {
			return false
		}
	}
}

// wireEnum reads the string at b[i] as the name of one of T's values
// 0..last and returns that value and the index after the string.
func wireEnum[T interface {
	~uint8
	String() string
}](b []byte, i int, last T) (v T, end int, ok bool) {
	s, end, ok := wireString(b, i)
	for v = 0; ok && v <= last; v++ {
		if v.String() == string(s) {
			return v, end, true
		}
	}
	return 0, end, false
}

// wireNum reads the integer at b[i] into *dst and returns the index after
// it; a value that does not fit T is refused.
func wireNum[T int | int64](b []byte, i int, dst *T) (end int, ok bool) {
	v, end, ok := wireInt(b, i)
	*dst = T(v)
	return end, ok && int64(*dst) == v
}

// skipSpace returns the index of the first non-whitespace byte of b at or
// after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// wireString reads the escape-free string starting at b[i] and returns
// its contents and the index after its closing quote.
func wireString(b []byte, i int) (s []byte, end int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return nil, i, false
	}
	n := bytes.IndexByte(b[i+1:], '"')
	if n < 0 {
		return nil, len(b), false
	}
	s = b[i+1 : i+1+n]
	return s, i + n + 2, bytes.IndexByte(s, '\\') < 0
}

// wireInt reads the JSON integer starting at b[i] (-?(0|[1-9][0-9]*), in
// int64 range) and returns it and the index after its last digit.
func wireInt(b []byte, i int) (v int64, end int, ok bool) {
	end = i
	if end < len(b) && b[end] == '-' {
		end++
	}
	digits := end
	for end < len(b) && '0' <= b[end] && b[end] <= '9' {
		end++
	}
	if end == digits || b[digits] == '0' && end-digits > 1 {
		return 0, end, false
	}
	v, err := strconv.ParseInt(string(b[i:end]), 10, 64)
	return v, end, err == nil
}

// statusFor maps an outcome to its HTTP status: served outcomes are 200,
// back-pressure outcomes are the matching 4xx/5xx so plain HTTP clients
// and load balancers see the ladder without parsing the body.
func statusFor(o Outcome) int {
	switch o {
	case OutcomeOK, OutcomeShed:
		return http.StatusOK
	case OutcomeRejected:
		return http.StatusTooManyRequests
	case OutcomeTimeout:
		return http.StatusGatewayTimeout
	case OutcomeReadOnly, OutcomeDraining:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// HTTPHandler exposes the service API on the obs plane:
//
//	GET/POST /v1/read?lpn=&pages=&deadline_ns=    serve a read
//	POST     /v1/write?lpn=&pages=&deadline_ns=   serve a write
//	GET      /v1/stats                            Stats snapshot (JSON)
//	POST     /v1/force-readonly                   admin: trip ladder rung 3
//	POST     /v1/drain                            graceful drain; DrainReport
//
// Everything else falls through to next (typically the Telemetry
// handler carrying /metrics and /healthz); a nil next 404s.
func (srv *Server) HTTPHandler(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/read", func(w http.ResponseWriter, r *http.Request) {
		srv.serveOp(w, r, false)
	})
	mux.HandleFunc("/v1/write", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "write requires POST", http.StatusMethodNotAllowed)
			return
		}
		srv.serveOp(w, r, true)
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(srv.Stats())
	})
	mux.HandleFunc("/v1/force-readonly", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "force-readonly requires POST", http.StatusMethodNotAllowed)
			return
		}
		srv.ForceReadOnly()
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, `{"status":"read-only"}`)
	})
	mux.HandleFunc("/v1/drain", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "drain requires POST", http.StatusMethodNotAllowed)
			return
		}
		rep := srv.Drain()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"drained_pages":         rep.DrainedPages,
			"remaining_dirty_pages": rep.RemainingDirtyPages,
			"degraded":              rep.Degraded,
		})
	})
	if next != nil {
		mux.Handle("/", next)
	}
	return mux
}

// wireBufs recycles the op handlers' body buffers.
var wireBufs = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// jsonContentType is the op responses' Content-Type value, shared so no
// response allocates its own; net/http only reads it.
var jsonContentType = []string{"application/json"}

// serveOp parses the query parameters, submits, and writes the wire
// response with the ladder-mapped status code.
func (srv *Server) serveOp(w http.ResponseWriter, r *http.Request, write bool) {
	lpnArg, pagesArg, deadlineArg := opQuery(r.URL.RawQuery)
	lpn, err := strconv.ParseInt(lpnArg, 10, 64)
	if err != nil {
		http.Error(w, "bad lpn: "+err.Error(), http.StatusBadRequest)
		return
	}
	pages := 1
	if pagesArg != "" {
		if pages, err = strconv.Atoi(pagesArg); err != nil {
			http.Error(w, "bad pages: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	var deadline int64
	if deadlineArg != "" {
		if deadline, err = strconv.ParseInt(deadlineArg, 10, 64); err != nil {
			http.Error(w, "bad deadline_ns: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	resp, err := srv.Submit(Op{Write: write, LPN: lpn, Pages: pages, DeadlineNs: deadline})
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	h := w.Header()
	if resp.RetryAfterNs > 0 {
		// Whole-second ceiling for standard clients; the body carries the
		// precise hint.
		h.Set("Retry-After", strconv.FormatInt((resp.RetryAfterNs+999_999_999)/1_000_000_000, 10))
	}
	h["Content-Type"] = jsonContentType
	w.WriteHeader(statusFor(resp.Outcome))
	bp := wireBufs.Get().(*[]byte)
	*bp = appendWire((*bp)[:0], &resp)
	_, _ = w.Write(*bp) // the client is gone; nothing else to tell it
	wireBufs.Put(bp)
}

// opQuery returns the lpn, pages and deadline_ns values of a raw query,
// equal to url.ParseQuery followed by Get: the first value of each key
// wins, a pair holding ';' or a malformed escape is skipped, and a key
// or value is unescaped only when it holds '%' or '+'.
func opQuery(raw string) (lpn, pages, deadline string) {
	var seen uint8
	for raw != "" && seen != 7 {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		key, val, _ := strings.Cut(pair, "=")
		key, ok := queryUnescape(key)
		if !ok {
			continue
		}
		var dst *string
		var bit uint8
		switch key {
		case "lpn":
			dst, bit = &lpn, 1
		case "pages":
			dst, bit = &pages, 2
		case "deadline_ns":
			dst, bit = &deadline, 4
		default:
			continue
		}
		if seen&bit != 0 {
			continue
		}
		if *dst, ok = queryUnescape(val); ok {
			seen |= bit
		}
	}
	return lpn, pages, deadline
}

// queryUnescape is url.QueryUnescape without the copy when s has nothing
// to unescape.
func queryUnescape(s string) (string, bool) {
	if strings.IndexByte(s, '%') < 0 && strings.IndexByte(s, '+') < 0 {
		return s, true
	}
	u, err := url.QueryUnescape(s)
	return u, err == nil
}

// Client submits ops to a remote ssdserve over its HTTP API. It
// implements the same Submit contract as Server, so the load generator
// drives either interchangeably.
type Client struct {
	// Base is the service root, e.g. "http://127.0.0.1:9000".
	Base string
	// HTTP is the transport; nil uses http.DefaultClient.
	HTTP *http.Client
}

// maxOpBody caps the bytes Client.Submit reads of a response body.
const maxOpBody = 1 << 16

// submitBuf is one Client.Submit call's scratch, recycled through
// submitBufs: the URL being built and the body being read.
type submitBuf struct {
	url  []byte
	body bytes.Buffer
	lim  io.LimitedReader
}

var submitBufs = sync.Pool{New: func() any { return new(submitBuf) }}

// Submit sends one op and decodes the outcome. Transport failures are
// errors; ladder refusals (reject, read-only, …) are normal responses.
func (c *Client) Submit(op Op) (Response, error) {
	sb := submitBufs.Get().(*submitBuf)
	defer submitBufs.Put(sb)
	u := append(sb.url[:0], c.Base...)
	if op.Write {
		u = append(u, "/v1/write?lpn="...)
	} else {
		u = append(u, "/v1/read?lpn="...)
	}
	u = strconv.AppendInt(u, op.LPN, 10)
	u = strconv.AppendInt(append(u, "&pages="...), int64(op.Pages), 10)
	u = strconv.AppendInt(append(u, "&deadline_ns="...), op.DeadlineNs, 10)
	sb.url = u
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	var (
		hr  *http.Response
		err error
	)
	if op.Write {
		hr, err = hc.Post(string(u), "application/json", nil)
	} else {
		hr, err = hc.Get(string(u))
	}
	if err != nil {
		return Response{Outcome: OutcomeError}, err
	}
	defer hr.Body.Close()
	sb.body.Reset()
	sb.lim = io.LimitedReader{R: hr.Body, N: maxOpBody}
	_, err = sb.body.ReadFrom(&sb.lim)
	sb.lim.R = nil
	if err != nil {
		return Response{Outcome: OutcomeError}, err
	}
	var resp Response
	if !decodeWire(sb.body.Bytes(), &resp) {
		// %s copies the body out before the buffer is reused.
		return Response{Outcome: OutcomeError},
			fmt.Errorf("serve: %s: %s", hr.Status, sb.body.Bytes())
	}
	return resp, nil
}
