package experiments

import (
	"bytes"
	"regexp"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestGridSharedObserversDeterministic runs a two-trace grid twice with one
// telemetry observer, one Perfetto export and one progress reporter shared
// by every cell, as cmd/experiments -listen, -progress and a trace export
// attach them. The shared observers are single-goroutine state, so the
// cells must reach them one at a time in a fixed order: the export and the
// progress lines (wall-clock rates aside) must repeat byte for byte, and
// the race detector must stay quiet.
func TestGridSharedObserversDeterministic(t *testing.T) {
	run := func() (export, progress []byte) {
		var ex, pr bytes.Buffer
		tel := obs.New()
		exp := obs.NewTraceExport(&ex, 16, 1)
		cfg := testConfig()
		cfg.Scale = 0.01
		cfg.Traces = []string{"src1_2", "ts_0"}
		cfg.CacheSizesMB = []int{16}
		cfg.Observers = []sim.Observer{tel.Observer(), exp, obs.NewProgress(&pr, 500)}
		if _, err := NewRunner(cfg).RunGrid(); err != nil {
			t.Fatal(err)
		}
		if err := exp.Close(); err != nil {
			t.Fatal(err)
		}
		if exp.SampledCount() == 0 {
			t.Fatal("the export sampled no request")
		}
		rate := regexp.MustCompile(`"reqs_per_sec":[0-9.]+`)
		return ex.Bytes(), rate.ReplaceAll(pr.Bytes(), nil)
	}
	ex1, pr1 := run()
	ex2, pr2 := run()
	if !bytes.Equal(ex1, ex2) {
		t.Fatalf("Perfetto export differs between runs: %d vs %d bytes", len(ex1), len(ex2))
	}
	if !bytes.Equal(pr1, pr2) {
		t.Fatalf("progress lines differ between runs:\n%s\n---\n%s", pr1, pr2)
	}
}
