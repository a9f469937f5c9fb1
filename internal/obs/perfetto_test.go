package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/sim"
)

// perfettoEvent mirrors the exporter's event shape for decoding.
type perfettoEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	S    string         `json:"s"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

// runExport replays the test workload through a TraceExport, attached as
// an observer and as the Req-block policy's transition sink, and returns
// the raw bytes and the replay's metrics.
func runExport(t *testing.T, rate int, seed uint64, opts replay.Options) ([]byte, *replay.Metrics) {
	t.Helper()
	var buf bytes.Buffer
	exp := NewTraceExport(&buf, rate, seed)
	pol := core.New(1024)
	pol.SetTransitionSink(exp)
	opts.Observers = []sim.Observer{exp}
	m, err := replay.Run(testTrace(t), pol, testDevice(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), m
}

// decodeExport parses an export into its events.
func decodeExport(t *testing.T, data []byte) []perfettoEvent {
	t.Helper()
	var doc struct {
		DisplayTimeUnit string          `json:"displayTimeUnit"`
		TraceEvents     []perfettoEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	return doc.TraceEvents
}

// The export must be one valid JSON document in Chrome trace-event form,
// deterministic for a fixed seed and rate, with every blame child slice
// tiling its parent request slice exactly and every instant inside it.
func TestTraceExportDeterministicAndNested(t *testing.T) {
	a, _ := runExport(t, 16, 7, replay.Options{})
	if b, _ := runExport(t, 16, 7, replay.Options{}); !bytes.Equal(a, b) {
		t.Fatal("same seed and rate produced different exports")
	}
	if b, _ := runExport(t, 16, 8, replay.Options{}); bytes.Equal(a, b) {
		t.Fatal("different seed produced an identical export")
	}

	kinds := map[string]int{}
	var parent *perfettoEvent
	var childEnd float64
	const eps = 0.0005 // half the 3-decimal µs resolution
	events := decodeExport(t, a)
	for i := range events {
		ev := &events[i]
		if ev.Ph == "M" {
			continue
		}
		kinds[ev.Cat]++
		switch ev.Cat {
		case "request":
			// The previous parent must have been tiled completely.
			if parent != nil && math.Abs(childEnd-(parent.Ts+parent.Dur)) > eps {
				t.Fatalf("%s: children end at %v, parent ends at %v",
					parent.Name, childEnd, parent.Ts+parent.Dur)
			}
			parent = ev
			childEnd = ev.Ts
			if ev.Args["dominant"] == nil || ev.Args["index"] == nil || ev.Args["issue"] == nil {
				t.Fatalf("request slice missing args: %+v", ev)
			}
		case "blame":
			if parent == nil {
				t.Fatalf("blame slice %q before any request slice", ev.Name)
			}
			if ev.Tid != parent.Tid {
				t.Fatalf("blame slice on tid %d, parent on %d", ev.Tid, parent.Tid)
			}
			// Children are sequential: each starts where the last ended.
			if math.Abs(ev.Ts-childEnd) > eps {
				t.Fatalf("%s: child starts at %v, previous ended at %v", ev.Name, ev.Ts, childEnd)
			}
			childEnd = ev.Ts + ev.Dur
		case "evict", "list":
			if ev.Ph != "i" || ev.S != "t" {
				t.Fatalf("%s event is not a thread-scoped instant: %+v", ev.Cat, ev)
			}
			if parent == nil {
				t.Fatalf("%s instant %q before any request slice", ev.Cat, ev.Name)
			}
			if ev.Tid != parent.Tid || ev.Args["index"] != parent.Args["index"] {
				t.Fatalf("%s instant on tid %d of request %v, parent on %d of %v",
					ev.Cat, ev.Tid, ev.Args["index"], parent.Tid, parent.Args["index"])
			}
			if ev.Ts < parent.Ts-eps || ev.Ts > parent.Ts+parent.Dur+eps {
				t.Fatalf("%s instant at %v outside parent [%v,%v]",
					ev.Cat, ev.Ts, parent.Ts, parent.Ts+parent.Dur)
			}
		default:
			t.Fatalf("unexpected event %+v", ev)
		}
	}
	if parent != nil && math.Abs(childEnd-(parent.Ts+parent.Dur)) > eps {
		t.Fatalf("last parent not tiled: children end %v, parent ends %v",
			childEnd, parent.Ts+parent.Dur)
	}
	for _, cat := range []string{"request", "blame", "evict", "list"} {
		if kinds[cat] == 0 {
			t.Fatalf("export has no %s events: %v", cat, kinds)
		}
	}
}

// Rate 0 disables sampling: the export is a valid empty document.
func TestTraceExportRateZero(t *testing.T) {
	out, _ := runExport(t, 0, 1, replay.Options{})
	for _, ev := range decodeExport(t, out) {
		if ev.Ph != "M" {
			t.Fatalf("rate-0 export contains event %+v", ev)
		}
	}
}

// Two runs with the same trace, seed and rate must produce byte-identical
// request traces, a different seed a different sample, and the trace must
// hold exactly one request slice for each processed request the sampler
// selects — no request lost, none repeated — with list transitions
// arriving through the Req-block policy's sink.
func TestTracerDeterministic(t *testing.T) {
	const rate, seed = 64, 7
	a, m := runExport(t, rate, seed, replay.Options{})
	if b, _ := runExport(t, rate, seed, replay.Options{}); !bytes.Equal(a, b) {
		t.Fatal("same seed and rate produced different request traces")
	}
	if other, _ := runExport(t, rate, seed+1, replay.Options{}); bytes.Equal(a, other) {
		t.Fatal("different seed produced an identical sample — sampler ignores the seed")
	}

	sampler := NewTraceExport(bytes.NewBuffer(nil), rate, seed)
	want := map[int64]bool{}
	for i := 0; i < m.Requests; i++ {
		if sampler.Sampled(i) {
			want[int64(i)] = true
		}
	}
	got := map[int64]bool{}
	kinds := map[string]int{}
	for _, ev := range decodeExport(t, a) {
		kinds[ev.Cat]++
		if ev.Cat != "request" {
			continue
		}
		idx := int64(ev.Args["index"].(float64))
		if got[idx] {
			t.Fatalf("request %d has more than one slice", idx)
		}
		got[idx] = true
	}
	if len(want) == 0 {
		t.Fatalf("rate %d sampled none of %d requests", rate, m.Requests)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trace holds %d request slices, the sampler selects %d", len(got), len(want))
	}
	if kinds["list"] == 0 {
		t.Fatalf("no list transitions recorded through the req-block sink: %v", kinds)
	}
}

// recordedBatch is one victim batch as the export's evict instant states it.
type recordedBatch struct {
	index, at       int64
	kind            string
	pages, min, max int64
}

// requestRecorder records the victim batches dispatched and the list
// transitions reported between each OnRequest and its OnResult, and counts
// the batches and transitions outside any request.
type requestRecorder struct {
	sim.NopObserver
	open    bool
	index   int64
	batches []recordedBatch
	moves   []cache.ListTransition
	outside int
}

func (r *requestRecorder) OnRequest(_ *sim.Engine, ev *sim.RequestEvent) {
	r.open, r.index = true, int64(ev.Index)
}

func (r *requestRecorder) OnEviction(_ *sim.Engine, ev *sim.EvictionEvent) {
	if !r.open {
		r.outside++
		return
	}
	b := recordedBatch{index: r.index, at: ev.Time, kind: ev.Kind.String(), pages: int64(len(ev.LPNs)),
		min: math.MaxInt64, max: math.MinInt64}
	for _, lpn := range ev.LPNs {
		b.min, b.max = min(b.min, lpn), max(b.max, lpn)
	}
	r.batches = append(r.batches, b)
}

func (r *requestRecorder) OnResult(*sim.Engine, *sim.ResultEvent) { r.open = false }

func (r *requestRecorder) OnListTransition(tr cache.ListTransition) {
	if !r.open {
		r.outside++
		return
	}
	r.moves = append(r.moves, tr)
}

// At rate 1 the export holds every request, and its instants are exactly
// what a recording observer and transition sink see inside each request on
// an identical run. Idle flushing puts batches between the requests; none
// of them may be attached to one.
func TestTraceExportRateOne(t *testing.T) {
	opts := replay.Options{IdleFlushNs: 12_000_000}
	out, m := runExport(t, 1, 3, opts)

	rec := &requestRecorder{}
	pol := core.New(1024)
	pol.SetTransitionSink(rec)
	opts.Observers = []sim.Observer{rec}
	if _, err := replay.Run(testTrace(t), pol, testDevice(t), opts); err != nil {
		t.Fatal(err)
	}
	if len(rec.batches) == 0 || len(rec.moves) == 0 || rec.outside == 0 {
		t.Fatalf("reference run saw %d batches and %d transitions inside requests, %d events outside",
			len(rec.batches), len(rec.moves), rec.outside)
	}

	num := func(ev perfettoEvent, key string) int64 { return int64(ev.Args[key].(float64)) }
	var requests int
	var batches []recordedBatch
	var moves []cache.ListTransition
	for _, ev := range decodeExport(t, out) {
		switch ev.Cat {
		case "request":
			requests++
		case "evict":
			batches = append(batches, recordedBatch{
				index: num(ev, "index"), at: int64(math.Round(ev.Ts * 1000)), kind: ev.Args["kind"].(string),
				pages: num(ev, "pages"), min: num(ev, "lpn_min"), max: num(ev, "lpn_max"),
			})
		case "list":
			moves = append(moves, cache.ListTransition{
				LPN: num(ev, "lpn"), Pages: int(num(ev, "pages")),
				From: ev.Args["from"].(string), To: ev.Args["to"].(string),
			})
		}
	}
	if requests != m.Requests {
		t.Fatalf("rate 1: %d request slices, %d processed requests", requests, m.Requests)
	}
	if !reflect.DeepEqual(batches, rec.batches) {
		t.Fatalf("evict instants differ from the recorded request-path batches (%d vs %d)",
			len(batches), len(rec.batches))
	}
	if !reflect.DeepEqual(moves, rec.moves) {
		t.Fatalf("list instants differ from the recorded transitions (%d vs %d)", len(moves), len(rec.moves))
	}
}

// errWriter fails every write.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("boom") }

func TestTraceExportLatchesWriteError(t *testing.T) {
	exp := NewTraceExport(errWriter{}, 1, 0)
	exp.OnRequest(nil, &sim.RequestEvent{Index: 0})
	exp.OnDone(nil, &sim.DoneEvent{})
	if exp.Err() == nil || exp.Close() == nil {
		t.Fatal("write error not latched")
	}
}

func TestSamplerIsPureFunction(t *testing.T) {
	e1 := NewTraceExport(bytes.NewBuffer(nil), 128, 99)
	e2 := NewTraceExport(bytes.NewBuffer(nil), 128, 99)
	n := 0
	for i := 0; i < 100000; i++ {
		if e1.Sampled(i) != e2.Sampled(i) {
			t.Fatal("sampler not deterministic")
		}
		if e1.Sampled(i) {
			n++
		}
	}
	// 1-in-128 over 100k indices: expect ~781, allow a wide band.
	if n < 500 || n > 1100 {
		t.Fatalf("sample count %d implausible for rate 128", n)
	}
}
