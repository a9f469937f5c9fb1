package obs

import (
	"math"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// Every instrument must be a safe no-op on a nil receiver: the disabled
// telemetry path relies on it.
func TestInstrumentsNilSafe(t *testing.T) {
	var c *Counter
	c.Add(3)
	c.Inc()
	c.Set(9)
	if c.Value() != 0 {
		t.Fatal("nil Counter.Value != 0")
	}
	var g *Gauge
	g.Set(7)
	if g.Value() != 0 {
		t.Fatal("nil Gauge.Value != 0")
	}
	var f *FGauge
	f.Set(0.5)
	if f.Value() != 0 {
		t.Fatal("nil FGauge.Value != 0")
	}
	var h *metrics.LogHist
	h.Observe(5)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 || h.Pow2Counts()[0] != 0 {
		t.Fatal("nil histogram is not a zero no-op")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	c := &Counter{}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Counter = %d, want 5", c.Value())
	}
	c.Set(100)
	if c.Value() != 100 {
		t.Fatalf("Counter after Set = %d", c.Value())
	}
	g := &Gauge{}
	g.Set(-3)
	if g.Value() != -3 {
		t.Fatalf("Gauge = %d", g.Value())
	}
	f := &FGauge{}
	f.Set(0.25)
	if f.Value() != 0.25 {
		t.Fatalf("FGauge = %v", f.Value())
	}
}

// A value in the last power-of-two fold, (2^62, 2^63], has no finite le
// edge: the exposition stops at 2^62 and counts it only under +Inf, while
// the histogram's quantile reads it back as math.MaxInt64.
func TestHistOverflowBucket(t *testing.T) {
	r := &Registry{}
	h := r.Hist("big_ns", "Huge.")
	h.Observe(math.MaxInt64)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`big_ns_bucket{le="4611686018427387904"} 0` + "\n",
		`big_ns_bucket{le="+Inf"} 1` + "\n",
		"big_ns_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, out)
		}
	}
	if strings.Count(out, "big_ns_bucket") != 64 {
		t.Fatalf("want 63 finite edges plus +Inf:\n%s", out)
	}
	if got := h.Quantile(0.5); got != math.MaxInt64 {
		t.Fatalf("overflow quantile = %d", got)
	}
}

// Instrument updates are the per-event hot path; none may allocate.
func TestInstrumentAllocs(t *testing.T) {
	c := &Counter{}
	g := &Gauge{}
	f := &FGauge{}
	h := &metrics.LogHist{}
	if got := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Set(2)
		f.Set(0.5)
		h.Observe(12345)
	}); got > 0 {
		t.Fatalf("instrument update allocs = %v, want 0", got)
	}
}
