package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile computes the reference order statistic.
func exactQuantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(p * float64(len(s)))
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

func TestQuantilePanicsOnBadP(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("p=%v accepted", p)
				}
			}()
			NewQuantile(p)
		}()
	}
}

func TestQuantileEmptyAndTiny(t *testing.T) {
	q := NewQuantile(0.5)
	if q.Value() != 0 || q.Count() != 0 {
		t.Fatal("empty estimator not zero")
	}
	q.Observe(7)
	if q.Value() != 7 {
		t.Fatalf("single value = %v", q.Value())
	}
	q.Observe(3)
	q.Observe(5)
	// Exact order statistics below 6 observations.
	if got := q.Value(); got != 5 { // p=0.5 of {3,5,7} → index 1
		t.Fatalf("3-sample median = %v, want 5", got)
	}
}

func TestQuantileUniformStream(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []float64{0.5, 0.9, 0.99} {
		q := NewQuantile(p)
		xs := make([]float64, 20000)
		for i := range xs {
			xs[i] = rng.Float64() * 1000
			q.Observe(xs[i])
		}
		want := exactQuantile(xs, p)
		got := q.Value()
		if rel := math.Abs(got-want) / 1000; rel > 0.02 {
			t.Errorf("p=%v: estimate %v vs exact %v (err %.3f of range)", p, got, want, rel)
		}
	}
}

func TestQuantileExponentialStream(t *testing.T) {
	// Heavy-tailed input, the shape of latency distributions.
	rng := rand.New(rand.NewSource(2))
	q50 := NewQuantile(0.5)
	q99 := NewQuantile(0.99)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 100
		q50.Observe(xs[i])
		q99.Observe(xs[i])
	}
	w50, w99 := exactQuantile(xs, 0.5), exactQuantile(xs, 0.99)
	if rel := math.Abs(q50.Value()-w50) / w50; rel > 0.05 {
		t.Errorf("P50 %v vs exact %v", q50.Value(), w50)
	}
	if rel := math.Abs(q99.Value()-w99) / w99; rel > 0.15 {
		t.Errorf("P99 %v vs exact %v", q99.Value(), w99)
	}
	if q50.Value() >= q99.Value() {
		t.Error("P50 >= P99")
	}
}

func TestQuantileSortedAndReversedStreams(t *testing.T) {
	for name, gen := range map[string]func(i int) float64{
		"ascending":  func(i int) float64 { return float64(i) },
		"descending": func(i int) float64 { return float64(10000 - i) },
		"constant":   func(i int) float64 { return 42 },
	} {
		q := NewQuantile(0.9)
		var xs []float64
		for i := 0; i < 10000; i++ {
			v := gen(i)
			xs = append(xs, v)
			q.Observe(v)
		}
		want := exactQuantile(xs, 0.9)
		got := q.Value()
		span := exactQuantile(xs, 0.9999) - exactQuantile(xs, 0.0001)
		if span == 0 {
			if got != want {
				t.Errorf("%s: %v != %v", name, got, want)
			}
			continue
		}
		if math.Abs(got-want)/span > 0.05 {
			t.Errorf("%s: estimate %v vs exact %v", name, got, want)
		}
	}
}

func TestQuantileMonotoneAcrossP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := []float64{0.1, 0.5, 0.9, 0.99}
	qs := make([]*Quantile, len(ps))
	for i, p := range ps {
		qs[i] = NewQuantile(p)
	}
	for i := 0; i < 30000; i++ {
		v := rng.NormFloat64()*50 + 500
		for _, q := range qs {
			q.Observe(v)
		}
	}
	for i := 1; i < len(qs); i++ {
		if qs[i].Value() < qs[i-1].Value() {
			t.Errorf("quantile estimates not monotone: p=%v:%v < p=%v:%v",
				ps[i], qs[i].Value(), ps[i-1], qs[i-1].Value())
		}
	}
}

// floatQuantile is P² with float marker positions, as Quantile was before
// its positions became integers; the differential below holds Quantile to
// it bit for bit.
type floatQuantile struct {
	n       int64
	heights [5]float64
	pos     [5]float64
	want    [5]float64
	inc     [5]float64
}

func newFloatQuantile(p float64) *floatQuantile {
	return &floatQuantile{
		pos:  [5]float64{1, 2, 3, 4, 5},
		want: [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5},
		inc:  [5]float64{0, p / 2, p, (1 + p) / 2, 1},
	}
}

func (q *floatQuantile) observe(v float64) {
	q.n++
	if q.n <= 5 {
		i := int(q.n) - 1
		q.heights[i] = v
		for ; i > 0 && q.heights[i-1] > q.heights[i]; i-- {
			q.heights[i-1], q.heights[i] = q.heights[i], q.heights[i-1]
		}
		return
	}
	var k int
	switch {
	case v < q.heights[0]:
		q.heights[0] = v
		k = 0
	case v < q.heights[1]:
		k = 0
	case v < q.heights[2]:
		k = 1
	case v < q.heights[3]:
		k = 2
	case v <= q.heights[4]:
		k = 3
	default:
		q.heights[4] = v
		k = 3
	}
	for i := k + 1; i < 5; i++ {
		q.pos[i]++
	}
	for i := 0; i < 5; i++ {
		q.want[i] += q.inc[i]
	}
	for i := 1; i <= 3; i++ {
		d := q.want[i] - q.pos[i]
		if (d >= 1 && q.pos[i+1]-q.pos[i] > 1) || (d <= -1 && q.pos[i-1]-q.pos[i] < -1) {
			var dir float64 = 1
			if d < 0 {
				dir = -1
			}
			h := q.heights[i] + dir/(q.pos[i+1]-q.pos[i-1])*
				((q.pos[i]-q.pos[i-1]+dir)*(q.heights[i+1]-q.heights[i])/(q.pos[i+1]-q.pos[i])+
					(q.pos[i+1]-q.pos[i]-dir)*(q.heights[i]-q.heights[i-1])/(q.pos[i]-q.pos[i-1]))
			if q.heights[i-1] < h && h < q.heights[i+1] {
				q.heights[i] = h
			} else {
				j := i + int(dir)
				q.heights[i] += dir * (q.heights[j] - q.heights[i]) / (q.pos[j] - q.pos[i])
			}
			q.pos[i] += dir
		}
	}
}

// TestQuantileMatchesFloatPositions runs Quantile and the float-position
// reference side by side over random streams of several shapes (uniform,
// heavy-tailed, few distinct values, drifting) and requires equal marker
// heights and positions after every observation.
func TestQuantileMatchesFloatPositions(t *testing.T) {
	ps := []float64{0.01, 0.25, 0.5, 0.9, 0.999}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20_000)
		shape := seed % 4
		for _, p := range ps {
			q, ref := NewQuantile(p), newFloatQuantile(p)
			src := rand.New(rand.NewSource(seed*31 + int64(p*1000)))
			for i := 0; i < n; i++ {
				var v float64
				switch shape {
				case 0:
					v = src.Float64() * 1000
				case 1:
					v = src.ExpFloat64() * 100
				case 2:
					v = float64(src.Intn(8))
				default:
					v = float64(i) + src.NormFloat64()*50
				}
				q.Observe(v)
				ref.observe(v)
				if q.heights != ref.heights {
					t.Fatalf("seed %d p %v obs %d: heights %v, reference %v", seed, p, i, q.heights, ref.heights)
				}
			}
			for i, pos := range q.pos {
				if float64(pos) != ref.pos[i] {
					t.Fatalf("seed %d p %v: positions %v, reference %v", seed, p, q.pos, ref.pos)
				}
			}
		}
	}
}

// BenchmarkQuantileObserve times one observation into each of three
// estimators (P50, P99, P99.9), as a latency recorder feeds them.
func BenchmarkQuantileObserve(b *testing.B) {
	qs := [3]*Quantile{NewQuantile(0.5), NewQuantile(0.99), NewQuantile(0.999)}
	rng := rand.New(rand.NewSource(1))
	vs := make([]float64, 4096)
	for i := range vs {
		vs[i] = rng.ExpFloat64() * 100
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := vs[i%len(vs)]
		for _, q := range qs {
			q.Observe(v)
		}
	}
}
