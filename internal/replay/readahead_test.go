package replay

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/leakcheck"
	"repro/internal/sim"
	"repro/internal/trace"
)

// longTrace is several read-ahead batches of small writes, long enough
// that RunSource's filler is still running when the engine stops early.
func longTrace(n int) *trace.Trace {
	tr := &trace.Trace{Name: "long"}
	for i := 0; i < n; i++ {
		tr.Requests = append(tr.Requests, trace.Request{Time: int64(i) * 10_000, Write: true, Offset: int64(i%4096) * 4096, Size: 4096})
	}
	return tr
}

// stopAt is an observer that stops its engine after `at` results.
type stopAt struct {
	sim.NopObserver
	at int
}

func (o *stopAt) OnResult(e *sim.Engine, ev *sim.ResultEvent) {
	if ev.Processed == o.at {
		e.Stop()
	}
}

// TestRunSourceReadAheadExits checks that RunSource's read-ahead filler
// is gone when RunSource returns, on each way a streamed replay ends, and
// that the scanner is then the caller's to read again.
func TestRunSourceReadAheadExits(t *testing.T) {
	var text bytes.Buffer
	if err := trace.WriteMSR(&text, longTrace(6000)); err != nil {
		t.Fatal(err)
	}
	// A request beyond the device's logical space fails the engine at
	// request 1000, with five batches of the stream still unread.
	var beyond bytes.Buffer
	tr := longTrace(6000)
	tr.Requests[1000].Offset = 1 << 40
	if err := trace.WriteMSR(&beyond, tr); err != nil {
		t.Fatal(err)
	}
	malformed := strings.Replace(text.String(), ",Write,", ",Wrote,", 1) // line 1 of 6000
	parts := strings.SplitAfterN(text.String(), "\n", 3001)
	midError := strings.Join(parts[:3000], "") + "bogus line\n" + parts[3000]

	cases := []struct {
		name      string
		csv       string
		opts      Options
		wantErr   string
		requests  int
		crashedAt int
	}{
		{name: "clean EOF", csv: text.String(), requests: 6000},
		{name: "parse error at the first line", csv: malformed, wantErr: "line 1: bad request type"},
		{name: "parse error mid-stream", csv: midError, wantErr: "line 3001"},
		{name: "engine error", csv: beyond.String(), wantErr: "request 1000 beyond device"},
		{name: "observer stop", csv: text.String(), opts: Options{Observers: []sim.Observer{&stopAt{at: 700}}}, requests: 700},
		{name: "crash harness", csv: text.String(), opts: Options{CrashAtRequest: 900}, requests: 900, crashedAt: 900},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			sc := trace.Scan(strings.NewReader(tc.csv), "long")
			m, err := RunSource(sc, cache.NewLRU(256), testDevice(t), tc.opts)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
			} else {
				if err != nil {
					t.Fatal(err)
				}
				if m.Requests != tc.requests || m.CrashedAtRequest != tc.crashedAt {
					t.Fatalf("processed %d requests (crash at %d), want %d (crash at %d)",
						m.Requests, m.CrashedAtRequest, tc.requests, tc.crashedAt)
				}
			}
			// Race-free only once the filler is joined.
			if sc.SkippedLines() != 0 {
				t.Fatalf("strict scanner skipped %d lines", sc.SkippedLines())
			}
		})
	}
}
