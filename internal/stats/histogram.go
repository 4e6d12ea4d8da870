package stats

import (
	"math"
	"sort"
)

// Quantile returns the q-quantile of xs (0 <= q <= 1) using the
// nearest-rank definition on a sorted copy: the smallest element x such
// that at least ceil(q*n) observations are <= x. Quantile(xs, 0) is the
// minimum, Quantile(xs, 1) the maximum. An empty slice returns NaN, so a
// missing measurement renders as NaN instead of masquerading as a zero
// latency.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted is Quantile over an already ascending slice.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// Histogram accumulates observations (latencies, rates) for quantile
// and moment queries. It keeps every sample exactly — the harness's
// sample counts are thousands, not millions, and exact percentiles are
// worth more than a bounded-error sketch at that scale. The zero value
// is ready to use. Not safe for concurrent use; callers serialize Adds.
type Histogram struct {
	xs     []float64
	sorted bool
	sum    float64
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.xs = append(h.xs, x)
	h.sorted = false
	h.sum += x
}

// Count returns the number of observations.
func (h *Histogram) Count() int { return len(h.xs) }

// Mean returns the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if len(h.xs) == 0 {
		return 0
	}
	return h.sum / float64(len(h.xs))
}

// Quantile returns the nearest-rank q-quantile (NaN when empty). The
// sample set is sorted lazily on first query and kept sorted until the
// next Add, so a burst of queries after a run costs one sort.
func (h *Histogram) Quantile(q float64) float64 {
	if len(h.xs) == 0 {
		return math.NaN()
	}
	if !h.sorted {
		sort.Float64s(h.xs)
		h.sorted = true
	}
	return quantileSorted(h.xs, q)
}

// Samples returns the recorded observations. Order is unspecified (the
// lazy quantile sort may have reordered them) and the slice is the
// histogram's own backing store — read-only to callers.
func (h *Histogram) Samples() []float64 { return h.xs }

// Min returns the smallest observation (NaN when empty).
func (h *Histogram) Min() float64 { return h.Quantile(0) }

// Max returns the largest observation (NaN when empty).
func (h *Histogram) Max() float64 { return h.Quantile(1) }

// LatencySummary is the percentile digest the traffic harness reports
// per SLO class. Values carry the unit of the observations (the harness
// records seconds); a summary of zero observations is all zeros with
// Count 0 rather than NaNs, so it renders cleanly in JSON.
type LatencySummary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Summary digests the histogram into the fixed percentile set.
func (h *Histogram) Summary() LatencySummary {
	if h.Count() == 0 {
		return LatencySummary{}
	}
	return LatencySummary{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}
