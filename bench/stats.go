package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return quantileSorted(sortedCopy(xs), 0.5)
}

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics, 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	return quantileSorted(sortedCopy(xs), q)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does, so
// the self-check below computes the same spread the PR driver does. It
// needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	at := func(i int) float64 { // cut point i of 4
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is one metric's repeat-run summary: the interquartile range and
// the full range, each as a share of the median.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	IQR    float64 `json:"iqr_over_median"`
	Range  float64 `json:"range_over_median"`
}

func spreadOf(xs []float64) spread {
	s := sortedCopy(xs)
	sp := spread{Median: quantileSorted(s, 0.5), Min: s[0], Max: s[len(s)-1]}
	sp.Q1, sp.Q3 = sp.Median, sp.Median
	if len(s) >= 2 {
		sp.Q1, sp.Q3 = quartiles(s)
	}
	if sp.Median != 0 {
		sp.IQR = (sp.Q3 - sp.Q1) / math.Abs(sp.Median)
		sp.Range = (sp.Max - sp.Min) / math.Abs(sp.Median)
	}
	return sp
}
