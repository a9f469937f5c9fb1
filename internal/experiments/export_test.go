package experiments

import (
	"bytes"
	"testing"
)

func TestBuildReportAndJSONRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full report is seconds-long")
	}
	cfg := testConfig()
	cfg.Traces = []string{"ts_0"}
	cfg.CacheSizesMB = []int{16}
	r := NewRunner(cfg)
	rep, err := r.BuildReport()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table2) != 1 || len(rep.Figure8) != 1 || len(rep.Figure9) != 1 {
		t.Fatalf("report incomplete: %d/%d/%d", len(rep.Table2), len(rep.Figure8), len(rep.Figure9))
	}
	if len(rep.Figure7) != 1 || len(rep.MRC) != 1 || len(rep.Tail) != 1 {
		t.Fatal("extension sections missing")
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Config.Scale != rep.Config.Scale {
		t.Fatal("config lost in round trip")
	}
	if len(back.Figure9) != 1 || back.Figure9[0].Trace != "ts_0" {
		t.Fatal("figure 9 lost in round trip")
	}
	if back.Figure9[0].Normalized["Req-block"] != 1.0 {
		t.Fatal("normalized map lost in round trip")
	}
}

func TestReadReportRejectsGarbage(t *testing.T) {
	if _, err := ReadReport(bytes.NewReader([]byte("not json"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestReportFullyDeterministic: two complete report builds (parallel grid
// included) must serialize to byte-identical JSON.
func TestReportFullyDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full reports are seconds-long")
	}
	cfg := testConfig()
	cfg.Traces = []string{"ts_0"}
	cfg.CacheSizesMB = []int{16}
	build := func() string {
		r := NewRunner(cfg)
		rep, err := r.BuildReport()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := build(), build()
	if a != b {
		t.Fatal("report JSON differs between identical runs")
	}
}

// TestReportConfigOmitsHooks: Tap and Observers measure a run rather than
// configure it, so they never reach the JSON report.
func TestReportConfigOmitsHooks(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Report{Config: DefaultConfig()}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"Tap"`)) || bytes.Contains(buf.Bytes(), []byte(`"Observers"`)) {
		t.Fatal("Tap or Observers encoded into the report")
	}
}
