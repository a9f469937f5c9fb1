package obs

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"repro/internal/ftl"
	"repro/internal/sim"
)

// FlightKind tags one flight-recorder record.
type FlightKind int64

const (
	// FlightRequest: a request entered the cache stage (a=lpn, b=pages,
	// c=1 for writes).
	FlightRequest FlightKind = iota + 1
	// FlightResult: a request completed (a=index, b=response ns,
	// c=dominant blame cause).
	FlightResult
	// FlightEviction: a victim batch dispatched (a=pages, b=eviction
	// kind, c=scan cost).
	FlightEviction
	// FlightGC: a collection finished (a=pause ns, b=pages moved).
	FlightGC
	// FlightErase: a block erase (a=issue, b=done).
	FlightErase
	// FlightDeadlineMiss: a served request expired (a=index, b=overrun ns).
	FlightDeadlineMiss
	// FlightRungChange: the overload ladder moved (a=old rung, b=new rung).
	FlightRungChange
	// FlightDegraded: entry into degraded/read-only mode.
	FlightDegraded
	// FlightInvariant: an invariant or run failure.
	FlightInvariant
	// FlightTrigger: the anomaly that caused a dump (a=dump ordinal).
	FlightTrigger
	// FlightGCPreempt: a scheduled collection preempted mid-victim
	// (a=pages moved so far).
	FlightGCPreempt
	// FlightGCResume: a preempted collection picked back up (a=pages
	// moved so far).
	FlightGCResume
)

// flightKindNames maps kinds to stable dump identifiers.
var flightKindNames = map[FlightKind]string{
	FlightRequest:      "request",
	FlightResult:       "result",
	FlightEviction:     "eviction",
	FlightGC:           "gc",
	FlightErase:        "erase",
	FlightDeadlineMiss: "deadline_miss",
	FlightRungChange:   "rung_change",
	FlightDegraded:     "degraded",
	FlightInvariant:    "invariant",
	FlightTrigger:      "trigger",
	FlightGCPreempt:    "gc_preempt",
	FlightGCResume:     "gc_resume",
}

// String returns the kind's stable name.
func (k FlightKind) String() string {
	if s, ok := flightKindNames[k]; ok {
		return s
	}
	return "unknown"
}

// flightWords is the fixed per-record word count: seq (written last),
// kind, time, and three payload words.
const flightWords = 6

// maxFlightDumps bounds the dump files one recorder writes; past the cap,
// triggers still record into the rings but stop producing files (a flapping
// anomaly must not fill the disk).
const maxFlightDumps = 32

// FlightRecord is one decoded ring record.
type FlightRecord struct {
	Seq   int64
	Shard int
	Kind  FlightKind
	T     int64
	A     int64
	B     int64
	C     int64
}

// FlightRecorder keeps a fixed-size lock-free ring of recent events per
// shard and dumps them to NDJSON files on anomaly triggers. Writers claim
// a slot with one atomic add and publish the record by storing its global
// sequence number last; readers detect and skip torn records by re-reading
// the sequence word, so recording never blocks and never allocates —
// cheap enough to leave on in production runs.
//
// A nil *FlightRecorder is valid everywhere: Record, Trigger, Observer and
// Tap all no-op, so call sites need no enabled/disabled branches.
type FlightRecorder struct {
	rings  [][]atomic.Int64 // shard → ring of size*flightWords words
	cursor []atomic.Int64   // shard → next slot ordinal (padded apart by slice layout)
	mask   int64            // size-1 (size is a power of two)
	seq    atomic.Int64     // global publication order across shards
	dumps  atomic.Int64     // dump files written (ordinal + cap)
	dir    string           // dump directory ("" = dumps disabled)
}

// NewFlightRecorder builds a recorder with one ring per shard, each
// holding size records (rounded up to a power of two; <= 0 means the 4096
// default). dir receives the NDJSON dump files; "" disables dumping while
// keeping the rings recording (Snapshot and the HTTP endpoint still work).
func NewFlightRecorder(shards, size int, dir string) *FlightRecorder {
	if shards < 1 {
		shards = 1
	}
	if size <= 0 {
		size = 4096
	}
	n := 1
	for n < size {
		n <<= 1
	}
	f := &FlightRecorder{
		rings:  make([][]atomic.Int64, shards),
		cursor: make([]atomic.Int64, shards),
		mask:   int64(n - 1),
		dir:    dir,
	}
	for k := range f.rings {
		f.rings[k] = make([]atomic.Int64, n*flightWords)
	}
	return f
}

// Shards returns the per-shard ring count (0 on nil).
func (f *FlightRecorder) Shards() int {
	if f == nil {
		return 0
	}
	return len(f.rings)
}

// Record appends one event to shard's ring. Out-of-range shards clamp to
// ring 0 so a defensive caller can never index out of bounds.
func (f *FlightRecorder) Record(shard int, kind FlightKind, t, a, b, c int64) {
	if f == nil {
		return
	}
	if shard < 0 || shard >= len(f.rings) {
		shard = 0
	}
	ring := f.rings[shard]
	slot := (f.cursor[shard].Add(1) - 1) & f.mask
	w := ring[slot*flightWords : slot*flightWords+flightWords]
	seq := f.seq.Add(1)
	// Invalidate, fill payload, publish: a reader that sees the old or
	// zero sequence discards the slot, so a half-written record is never
	// observed as valid.
	w[0].Store(0)
	w[1].Store(int64(kind))
	w[2].Store(t)
	w[3].Store(a)
	w[4].Store(b)
	w[5].Store(c)
	w[0].Store(seq)
}

// Snapshot decodes every valid record across all rings, ordered by global
// sequence (oldest first). Torn or empty slots are skipped.
func (f *FlightRecorder) Snapshot() []FlightRecord {
	if f == nil {
		return nil
	}
	var recs []FlightRecord
	for shard, ring := range f.rings {
		slots := (f.mask + 1)
		for s := int64(0); s < slots; s++ {
			w := ring[s*flightWords : s*flightWords+flightWords]
			s1 := w[0].Load()
			if s1 == 0 {
				continue
			}
			rec := FlightRecord{
				Seq: s1, Shard: shard, Kind: FlightKind(w[1].Load()),
				T: w[2].Load(), A: w[3].Load(), B: w[4].Load(), C: w[5].Load(),
			}
			if w[0].Load() != s1 {
				continue // overwritten while reading
			}
			recs = append(recs, rec)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	return recs
}

// WriteSnapshot renders the current rings as NDJSON, one record per line,
// oldest first.
func (f *FlightRecorder) WriteSnapshot(w io.Writer) error {
	for _, r := range f.Snapshot() {
		if _, err := fmt.Fprintf(w,
			`{"seq":%d,"shard":%d,"kind":%q,"t":%d,"a":%d,"b":%d,"c":%d}`+"\n",
			r.Seq, r.Shard, r.Kind, r.T, r.A, r.B, r.C); err != nil {
			return err
		}
	}
	return nil
}

// Trigger records the anomaly and dumps the rings to a fresh NDJSON file
// flightrec-<ordinal>-<reason>.ndjson in the recorder's directory. It
// returns the dump path, or "" when dumping is disabled, the dump cap is
// reached, or the write failed (triggers must never take the service
// down). Safe from any goroutine; concurrent triggers write distinct
// files.
func (f *FlightRecorder) Trigger(reason string, shard int, t int64) string {
	if f == nil {
		return ""
	}
	ord := f.dumps.Add(1) - 1
	f.Record(shard, FlightTrigger, t, ord, 0, 0)
	if f.dir == "" || ord >= maxFlightDumps {
		return ""
	}
	path := filepath.Join(f.dir, fmt.Sprintf("flightrec-%03d-%s.ndjson", ord, reason))
	file, err := os.Create(path)
	if err != nil {
		return ""
	}
	defer file.Close()
	if _, err := fmt.Fprintf(file, `{"trigger":%q,"shard":%d,"t":%d}`+"\n", reason, shard, t); err != nil {
		return ""
	}
	if err := f.WriteSnapshot(file); err != nil {
		return ""
	}
	return path
}

// DumpCount returns how many triggers have fired (including ones past the
// file cap).
func (f *FlightRecorder) DumpCount() int64 {
	if f == nil {
		return 0
	}
	return f.dumps.Load()
}

// Observer returns a sim.Observer recording shard's engine events into
// the ring: requests, results, evictions, and a degraded-run trigger at
// OnDone. Nil-safe (returns a no-op observer).
func (f *FlightRecorder) Observer(shard int) sim.Observer {
	if f == nil {
		return sim.NopObserver{}
	}
	return &flightObserver{f: f, shard: shard}
}

type flightObserver struct {
	f     *FlightRecorder
	shard int
}

func (o *flightObserver) OnRequest(_ *sim.Engine, ev *sim.RequestEvent) {
	var wr int64
	if ev.Write {
		wr = 1
	}
	o.f.Record(o.shard, FlightRequest, ev.Issue, ev.LPN, int64(ev.Pages), wr)
}

func (o *flightObserver) OnEviction(_ *sim.Engine, ev *sim.EvictionEvent) {
	o.f.Record(o.shard, FlightEviction, ev.Time, int64(len(ev.LPNs)), int64(ev.Kind), ev.ScanCost)
}

func (o *flightObserver) OnResult(_ *sim.Engine, ev *sim.ResultEvent) {
	o.f.Record(o.shard, FlightResult, ev.Completion,
		int64(ev.Req.Index), ev.Completion-ev.Req.Arrival, int64(ev.Blame.Dominant()))
}

func (o *flightObserver) OnDone(_ *sim.Engine, ev *sim.DoneEvent) {
	if ev.Degraded {
		o.f.Record(o.shard, FlightDegraded, ev.LastArrival, 0, 0, 0)
		o.f.Trigger("degraded", o.shard, ev.LastArrival)
	}
}

// Tap returns an ftl.Tap recording shard's GC collections and erases into
// the ring (programs and reads are far too frequent for a forensic ring
// and already have histograms). Nil-safe.
func (f *FlightRecorder) Tap(shard int) ftl.Tap {
	if f == nil {
		return nil
	}
	return &flightTap{f: f, shard: shard}
}

type flightTap struct {
	f     *FlightRecorder
	shard int
}

func (t *flightTap) TapProgram(issue, done int64) {}
func (t *flightTap) TapRead(issue, done int64)    {}
func (t *flightTap) TapErase(issue, done int64) {
	t.f.Record(t.shard, FlightErase, issue, issue, done, 0)
}
func (t *flightTap) TapGC(pause int64, pagesMoved int) {
	t.f.Record(t.shard, FlightGC, 0, pause, int64(pagesMoved), 0)
}
func (t *flightTap) TapGCPreempt(now int64, pagesMoved int) {
	t.f.Record(t.shard, FlightGCPreempt, now, int64(pagesMoved), 0, 0)
}
func (t *flightTap) TapGCResume(now int64, pagesMoved int) {
	t.f.Record(t.shard, FlightGCResume, now, int64(pagesMoved), 0, 0)
}

// MultiTap tees ftl.Tap calls to every non-nil tap; nil when none remain,
// and the single tap itself when only one does (no indirection cost).
func MultiTap(taps ...ftl.Tap) ftl.Tap {
	live := make([]ftl.Tap, 0, len(taps))
	for _, t := range taps {
		switch v := t.(type) {
		case nil:
			continue
		case *Telemetry:
			if v == nil {
				continue
			}
		case *flightTap:
			if v == nil {
				continue
			}
		}
		live = append(live, t)
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiTap(live)
}

type multiTap []ftl.Tap

func (m multiTap) TapProgram(issue, done int64) {
	for _, t := range m {
		t.TapProgram(issue, done)
	}
}
func (m multiTap) TapRead(issue, done int64) {
	for _, t := range m {
		t.TapRead(issue, done)
	}
}
func (m multiTap) TapErase(issue, done int64) {
	for _, t := range m {
		t.TapErase(issue, done)
	}
}
func (m multiTap) TapGC(pause int64, pagesMoved int) {
	for _, t := range m {
		t.TapGC(pause, pagesMoved)
	}
}
func (m multiTap) TapGCPreempt(now int64, pagesMoved int) {
	for _, t := range m {
		t.TapGCPreempt(now, pagesMoved)
	}
}
func (m multiTap) TapGCResume(now int64, pagesMoved int) {
	for _, t := range m {
		t.TapGCResume(now, pagesMoved)
	}
}
