// Package stats provides the descriptive statistics the
// work-partitioning framework uses: the mean, variance and coefficient
// of variation (the irregularity statistic fed to the GPU cost model)
// of float values, and the Moments of integer work counts (mean, CV,
// skewness and maximum in one pass).
package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than
// two values.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CV returns the coefficient of variation (stddev/mean) of xs. For
// inputs with non-positive mean it returns 0; a CV of 0 means perfectly
// regular work, larger values mean more irregular work.
//
// CV is the central irregularity statistic in this repository: the GPU
// device model charges a divergence penalty proportional to the CV of
// per-row (or per-vertex) work, and uniform sampling preserves CV in
// expectation, which is why thresholds identified on a sample transfer
// to the full input.
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m <= 0 {
		return 0
	}
	return StdDev(xs) / m
}

// CVInts computes CV over integer work counts without an intermediate
// float slice. It is the CV column of MomentsOfInts.
func CVInts(xs []int) float64 {
	return MomentsOfInts(xs).CV
}
