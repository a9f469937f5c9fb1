package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/ftl"
)

// Snapshot returns records in global publication order regardless of
// which shard's ring they landed in.
func TestFlightRecorderOrdering(t *testing.T) {
	fr := NewFlightRecorder(3, 16, "")
	for i := int64(0); i < 10; i++ {
		fr.Record(int(i%3), FlightRequest, i*100, i, 0, 0)
	}
	recs := fr.Snapshot()
	if len(recs) != 10 {
		t.Fatalf("snapshot has %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if r.Seq != int64(i+1) {
			t.Fatalf("record %d has seq %d, want %d", i, r.Seq, i+1)
		}
		if r.A != int64(i) || r.Shard != i%3 {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

// The ring keeps only the newest size records per shard; older ones are
// overwritten, newest last.
func TestFlightRecorderWraps(t *testing.T) {
	fr := NewFlightRecorder(1, 8, "")
	for i := int64(0); i < 20; i++ {
		fr.Record(0, FlightResult, i, i, 0, 0)
	}
	recs := fr.Snapshot()
	if len(recs) != 8 {
		t.Fatalf("snapshot has %d records, want 8", len(recs))
	}
	if recs[0].A != 12 || recs[7].A != 19 {
		t.Fatalf("wrapped ring holds [%d..%d], want [12..19]", recs[0].A, recs[7].A)
	}
}

// Out-of-range shards clamp instead of panicking, and a nil recorder
// absorbs every call.
func TestFlightRecorderDefensive(t *testing.T) {
	fr := NewFlightRecorder(1, 8, "")
	fr.Record(-5, FlightGC, 1, 0, 0, 0)
	fr.Record(99, FlightGC, 2, 0, 0, 0)
	if got := len(fr.Snapshot()); got != 2 {
		t.Fatalf("clamped records = %d, want 2", got)
	}

	var nilFR *FlightRecorder
	nilFR.Record(0, FlightGC, 0, 0, 0, 0)
	if nilFR.Snapshot() != nil || nilFR.Trigger("x", 0, 0) != "" || nilFR.Shards() != 0 || nilFR.DumpCount() != 0 {
		t.Fatal("nil FlightRecorder is not a no-op")
	}
	nilFR.Observer(0).OnDone(nil, nil)
	if tap := nilFR.Tap(0); tap != nil {
		t.Fatal("nil recorder Tap should be a nil interface")
	}
}

// Trigger writes one NDJSON dump per anomaly: a trigger header line then
// the ring snapshot, every line valid JSON.
func TestFlightRecorderTriggerDump(t *testing.T) {
	dir := t.TempDir()
	fr := NewFlightRecorder(2, 16, dir)
	fr.Record(0, FlightRequest, 100, 7, 4, 1)
	fr.Record(1, FlightDeadlineMiss, 200, 3, 50, 0)
	path := fr.Trigger("deadline-queued", 1, 200)
	if path == "" {
		t.Fatal("trigger produced no dump")
	}
	if filepath.Base(path) != "flightrec-000-deadline-queued.ndjson" {
		t.Fatalf("dump name %q", filepath.Base(path))
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("dump line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if lines[0]["trigger"] != "deadline-queued" {
		t.Fatalf("header = %v", lines[0])
	}
	// Header + the two records + the trigger's own ring record.
	if len(lines) != 4 {
		t.Fatalf("dump has %d lines, want 4", len(lines))
	}
	if lines[2]["kind"] != "deadline_miss" || lines[3]["kind"] != "trigger" {
		t.Fatalf("dump tail kinds = %v, %v", lines[2]["kind"], lines[3]["kind"])
	}
}

// Past the dump cap, triggers still record into the ring but write no
// more files — a flapping anomaly must not fill the disk.
func TestFlightRecorderDumpCap(t *testing.T) {
	dir := t.TempDir()
	fr := NewFlightRecorder(1, 256, dir)
	var files int
	for i := 0; i < maxFlightDumps+5; i++ {
		if fr.Trigger(fmt.Sprintf("t%d", i), 0, int64(i)) != "" {
			files++
		}
	}
	if files != maxFlightDumps {
		t.Fatalf("wrote %d dump files, want %d", files, maxFlightDumps)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != maxFlightDumps {
		t.Fatalf("dir has %d files, want %d", len(ents), maxFlightDumps)
	}
	if fr.DumpCount() != int64(maxFlightDumps+5) {
		t.Fatalf("DumpCount = %d", fr.DumpCount())
	}
}

// Concurrent writers and snapshot readers must be race-free (run under
// -race) and never surface a torn record: every observed record is
// internally consistent.
func TestFlightRecorderConcurrent(t *testing.T) {
	fr := NewFlightRecorder(4, 64, "")
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(shard int) {
			defer writers.Done()
			for i := int64(0); i < 5000; i++ {
				// Payload words all carry i so a torn record is detectable.
				fr.Record(shard, FlightResult, i, i, i, i)
			}
		}(w)
	}
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, r := range fr.Snapshot() {
				if r.T != r.A || r.A != r.B || r.B != r.C {
					t.Errorf("torn record surfaced: %+v", r)
					return
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()
	if len(fr.Snapshot()) != 4*64 {
		t.Fatalf("final snapshot %d records, want %d", len(fr.Snapshot()), 4*64)
	}
}

// countTap counts calls for MultiTap fan-out assertions.
type countTap struct{ program, gc, preempt, resume int }

func (c *countTap) TapProgram(issue, done int64)           { c.program++ }
func (c *countTap) TapRead(issue, done int64)              {}
func (c *countTap) TapErase(issue, done int64)             {}
func (c *countTap) TapGC(pause int64, pages int)           { c.gc++ }
func (c *countTap) TapGCPreempt(now int64, pagesMoved int) { c.preempt++ }
func (c *countTap) TapGCResume(now int64, pagesMoved int)  { c.resume++ }

// MultiTap drops nil and typed-nil taps, unwraps a single survivor, and
// tees to all survivors otherwise.
func TestMultiTap(t *testing.T) {
	if MultiTap() != nil || MultiTap(nil, (*Telemetry)(nil), (*flightTap)(nil)) != nil {
		t.Fatal("all-nil MultiTap should be nil")
	}
	a := &countTap{}
	if got := MultiTap(nil, a, (*Telemetry)(nil)); got != ftl.Tap(a) {
		t.Fatal("single survivor should be returned unwrapped")
	}
	b := &countTap{}
	tee := MultiTap(a, b)
	tee.TapProgram(0, 1)
	tee.TapGC(5, 2)
	tee.TapGCPreempt(6, 1)
	tee.TapGCResume(7, 1)
	want := countTap{program: 1, gc: 1, preempt: 1, resume: 1}
	if *a != want || *b != want {
		t.Fatalf("tee did not fan out: a=%+v b=%+v", a, b)
	}
}

// The recorder's HTTP endpoint serves the snapshot once registered, and
// 404s when no recorder is attached.
func TestFlightRecorderHTTP(t *testing.T) {
	tel := New()
	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()
	if code, _ := get(t, srv.URL+"/debug/flightrec"); code != 404 {
		t.Fatalf("unattached /debug/flightrec = %d, want 404", code)
	}
	fr := NewFlightRecorder(1, 8, "")
	fr.Record(0, FlightRequest, 1, 2, 3, 4)
	tel.SetFlightRecorder(fr)
	code, body := get(t, srv.URL+"/debug/flightrec")
	if code != 200 {
		t.Fatalf("/debug/flightrec = %d, want 200", code)
	}
	if !strings.Contains(body, `"kind":"request"`) {
		t.Fatalf("snapshot body %q", body)
	}
}
