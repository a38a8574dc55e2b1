package bench

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; NaN for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// fastTime and fastRate are the fast-tail estimators for CPU-bound fixed
// work. Interference on a shared host only ever slows such work, so the
// fast end of many repeats is what the code costs and the rest is what
// the neighbours cost. The estimate is the third fastest sample: as deep
// into the tail as still leaves two faster samples to keep a fluke out.
// Over twenty cold runs taken on good and bad hours the third fastest of
// 70-110 full deploys had a quartile spread of 12% and of delta deploys
// 9%, the 10th percentile 19% and 27%, the median 13% and 19%. With fewer
// than ten samples the fastest is used.
func fastTime(times []float64) float64 {
	if len(times) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), times...)
	sort.Float64s(s)
	return s[fastRank(len(s))]
}

func fastRate(rates []float64) float64 {
	if len(rates) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), rates...)
	sort.Float64s(s)
	return s[len(s)-1-fastRank(len(s))]
}

// fastRank is the zero-based rank, counted from the fast end, that the
// fast-tail estimators read.
func fastRank(n int) int {
	if n < 10 {
		return 0
	}
	return 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// which is what the acceptance rule for this benchmark uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		lo := int(pos)
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return at(0.25), at(0.75)
}

// quantilePoints are where quantiles samples a distribution.
var quantilePoints = []float64{0, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1}

// quantiles summarises a sample set too large to report whole.
func quantiles(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]float64, len(quantilePoints))
	for i, q := range quantilePoints {
		out[i] = quantile(s, q)
	}
	return out
}
