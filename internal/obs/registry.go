package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"repro/internal/metrics"
)

// instrumentKind discriminates the union inside family.
type instrumentKind uint8

const (
	kindCounter instrumentKind = iota
	kindGauge
	kindFGauge
	kindHist
)

// family is one registered instrument plus its exposition metadata.
type family struct {
	name, help string
	kind       instrumentKind
	c          *Counter
	g          *Gauge
	f          *FGauge
	h          *metrics.LogHist
}

// Registry holds named instruments and renders them in the Prometheus
// text exposition format. Registration happens once at construction time
// (Telemetry registers its whole catalog in New); after that the registry
// is read-only, so exposition needs no locking beyond the instruments'
// own atomics. Names are exposed sorted, giving scrapes a stable order
// regardless of registration order.
type Registry struct {
	fams []family
}

// register appends one family, panicking on a duplicate name — duplicate
// registration is a programming error, not a runtime condition.
func (r *Registry) register(f family) {
	for _, have := range r.fams {
		if have.name == f.name {
			panic("obs: duplicate instrument " + f.name)
		}
	}
	r.fams = append(r.fams, f)
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(family{name: name, help: help, kind: kindCounter, c: c})
	return c
}

// Gauge registers and returns a new integer gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(family{name: name, help: help, kind: kindGauge, g: g})
	return g
}

// FGauge registers and returns a new float gauge.
func (r *Registry) FGauge(name, help string) *FGauge {
	g := &FGauge{}
	r.register(family{name: name, help: help, kind: kindFGauge, f: g})
	return g
}

// Hist registers and returns a new histogram.
func (r *Registry) Hist(name, help string) *metrics.LogHist {
	h := &metrics.LogHist{}
	r.register(family{name: name, help: help, kind: kindHist, h: h})
	return h
}

// WritePrometheus renders every registered instrument in the Prometheus
// text format (version 0.0.4), sorted by name. Counters and gauges render
// as single samples; histograms render cumulative _bucket series with
// power-of-two le edges up to the highest populated bucket, then +Inf,
// _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	fams := make([]family, len(r.fams))
	copy(fams, r.fams)
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		switch f.kind {
		case kindCounter:
			fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", f.name, f.name, f.c.Value())
		case kindGauge:
			fmt.Fprintf(bw, "# TYPE %s gauge\n%s %d\n", f.name, f.name, f.g.Value())
		case kindFGauge:
			fmt.Fprintf(bw, "# TYPE %s gauge\n%s %g\n", f.name, f.name, f.f.Value())
		case kindHist:
			fmt.Fprintf(bw, "# TYPE %s histogram\n", f.name)
			writeHist(bw, f.name, f.h)
		}
	}
	return bw.Flush()
}

// writeHist renders one histogram family with power-of-two le edges:
// each edge's count sums the histogram's finer buckets below it
// (metrics.LogHist.Pow2Counts). The buckets are read exactly once;
// because the engine may be updating concurrently, the cumulative series
// and the total are both rebuilt from that single read so the exposition
// is internally monotonic.
func writeHist(w io.Writer, name string, h *metrics.LogHist) {
	counts := h.Pow2Counts()
	last := 0
	for i, c := range counts {
		if c > 0 {
			last = i
		}
	}
	var cum int64
	for i := 0; i <= last; i++ {
		cum += counts[i]
		if i == metrics.Pow2Buckets-1 {
			break // the last fold's edge, 2^63, is not a finite int64
		}
		fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, metrics.Pow2Upper(i), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %d\n", name, h.Sum())
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
}
