package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between the two closest ranks.
func quantile(sorted []float64, q float64) float64 {
	switch n := len(sorted); {
	case n == 0:
		return 0
	case n == 1:
		return sorted[0]
	default:
		pos := q * float64(n-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
	}
}

// summary describes one metric's values across the rounds of a run.
type summary struct {
	Q1, Median, Q3 float64
	// BestLow and BestHigh are the means of the lowest and of the highest
	// quarter of the values.
	BestLow, BestHigh float64
}

func summarize(values []float64) summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	sum := summary{Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75)}
	if n := (len(s) + 3) / 4; n > 0 {
		for i := 0; i < n; i++ {
			sum.BestLow += s[i] / float64(n)
			sum.BestHigh += s[len(s)-1-i] / float64(n)
		}
	}
	return sum
}

// best is the run's value for the metric: the mean over the best quarter
// of the rounds. Interference from whatever shares the machine only ever
// adds time, so the rounds on the good side repeat from run to run where
// the median drifts with the neighbours' load; averaging a quarter of
// them repeats better than reading off the one round at the quartile.
func (s summary) best(higherIsBetter bool) float64 {
	if higherIsBetter {
		return s.BestHigh
	}
	return s.BestLow
}

// iqrShare is the interquartile range as a share of the median.
func (s summary) iqrShare() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

func median(values []float64) float64 { return summarize(values).Median }

// latencyQuantiles sorts ns samples in place and returns their quantiles
// in µs.
func latencyQuantiles(ns []int64, qs ...float64) []float64 {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	f := make([]float64, len(ns))
	for i, v := range ns {
		f[i] = float64(v) / 1e3
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantile(f, q)
	}
	return out
}
