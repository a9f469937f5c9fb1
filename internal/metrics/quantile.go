package metrics

// Quantile estimates a single quantile of a stream in O(1) space with the
// P² algorithm (Jain & Chlamtac, CACM 1985): five markers track the
// running minimum, maximum, the target quantile and the two midpoints;
// marker heights are adjusted with a piecewise-parabolic fit as
// observations arrive. The replayer uses it for response-time tails
// (P50/P99), where mean latency hides exactly the effects whole-block
// flushes cause.
type Quantile struct {
	p       float64
	n       int64
	heights [5]float64
	pos     [5]int64   // actual marker positions (1-based)
	want    [5]float64 // desired marker positions (only 1..3 are read)
	inc     [5]float64 // desired-position increments per observation
}

// NewQuantile returns an estimator for the p-quantile, p in (0,1).
func NewQuantile(p float64) *Quantile {
	if p <= 0 || p >= 1 {
		panic("metrics: quantile p must be in (0,1)")
	}
	q := &Quantile{p: p}
	q.pos = [5]int64{1, 2, 3, 4, 5}
	q.want = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
	q.inc = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return q
}

// Observe adds one observation.
func (q *Quantile) Observe(v float64) {
	q.n++
	if q.n <= 5 {
		// Insertion sort into the initial marker heights.
		i := int(q.n) - 1
		q.heights[i] = v
		for ; i > 0 && q.heights[i-1] > q.heights[i]; i-- {
			q.heights[i-1], q.heights[i] = q.heights[i], q.heights[i-1]
		}
		return
	}
	// Locate the cell containing v and update extremes.
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
	// The end markers' desired positions are never read: the first one's
	// increment is 0 and the last one is not adjusted.
	for i := 1; i <= 3; i++ {
		q.want[i] += q.inc[i]
	}
	// Adjust the three middle markers. Positions are whole numbers, so the
	// float arithmetic below sees them exactly.
	for i := 1; i <= 3; i++ {
		d := q.want[i] - float64(q.pos[i])
		if (d >= 1 && q.pos[i+1]-q.pos[i] > 1) || (d <= -1 && q.pos[i-1]-q.pos[i] < -1) {
			dir := int64(1)
			if d < 0 {
				dir = -1
			}
			h := q.parabolic(i, dir)
			if q.heights[i-1] < h && h < q.heights[i+1] {
				q.heights[i] = h
			} else {
				q.heights[i] = q.linear(i, dir)
			}
			q.pos[i] += dir
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction.
func (q *Quantile) parabolic(i int, dir int64) float64 {
	d := float64(dir)
	below, above := float64(q.pos[i]-q.pos[i-1]), float64(q.pos[i+1]-q.pos[i])
	return q.heights[i] + d/float64(q.pos[i+1]-q.pos[i-1])*
		((below+d)*(q.heights[i+1]-q.heights[i])/above+
			(above-d)*(q.heights[i]-q.heights[i-1])/below)
}

// linear is the fallback height prediction.
func (q *Quantile) linear(i int, dir int64) float64 {
	j := i + int(dir)
	return q.heights[i] + float64(dir)*(q.heights[j]-q.heights[i])/float64(q.pos[j]-q.pos[i])
}

// Value returns the current estimate. With five or fewer observations it
// returns the exact order statistic.
func (q *Quantile) Value() float64 {
	if q.n == 0 {
		return 0
	}
	if q.n <= 5 {
		idx := int(q.p * float64(q.n))
		if idx >= int(q.n) {
			idx = int(q.n) - 1
		}
		return q.heights[idx]
	}
	return q.heights[2]
}

// Count returns the number of observations.
func (q *Quantile) Count() int64 { return q.n }
