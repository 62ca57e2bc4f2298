// Package stats provides the summary statistics used when reporting
// experiment results: means, standard deviations, confidence intervals
// (the paper reports 90% CIs over 32 repetitions), and
// helpers for aggregating repeated runs of a metric series.
package stats

import (
	"math"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs
// (0 for fewer than two samples).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the smallest value in xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value in xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// tCritical90 holds two-sided 90% critical values of Student's t
// distribution indexed by degrees of freedom (1-based); beyond the table
// the normal approximation 1.645 is used.
var tCritical90 = []float64{
	0, 6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
	1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
	1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697,
}

// CI90 returns the half-width of the two-sided 90% confidence interval for
// the mean of xs (Student's t for small samples, normal beyond df 30).
func CI90(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	df := n - 1
	var t float64
	if df < len(tCritical90) {
		t = tCritical90[df]
	} else {
		t = 1.645
	}
	return t * StdDev(xs) / math.Sqrt(float64(n))
}

// Summary is a summarized sample: its mean and 90% CI half-width,
// plus extremes. It is the unit every figure series is reported in.
type Summary struct {
	Mean float64
	CI90 float64
	Min  float64
	Max  float64
	N    int
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	return Summary{
		Mean: Mean(xs),
		CI90: CI90(xs),
		Min:  Min(xs),
		Max:  Max(xs),
		N:    len(xs),
	}
}

// Accumulator collects repeated observations of named quantities, one slice
// per name, preserving insertion order of names for stable reporting.
type Accumulator struct {
	order []string
	data  map[string][]float64
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{data: make(map[string][]float64)}
}

// Add records one observation of name.
func (a *Accumulator) Add(name string, v float64) {
	if _, ok := a.data[name]; !ok {
		a.order = append(a.order, name)
	}
	a.data[name] = append(a.data[name], v)
}

// Names returns the metric names in first-insertion order.
func (a *Accumulator) Names() []string {
	return append([]string(nil), a.order...)
}

// Summary summarizes the observations recorded for name.
func (a *Accumulator) Summary(name string) Summary {
	return Summarize(a.data[name])
}
