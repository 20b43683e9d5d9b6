package dsp

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the population variance of x, or 0 for fewer than two
// samples.
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	s := 0.0
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

// StdDev returns the population standard deviation of x.
func StdDev(x []float64) float64 { return math.Sqrt(Variance(x)) }

// Percentile returns the p-th percentile (p in [0,100]) of x using linear
// interpolation between order statistics. It copies x, so the input is not
// reordered. Empty input returns NaN.
func Percentile(x []float64, p float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(x))
	copy(s, x)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile of x.
func Median(x []float64) float64 { return Percentile(x, 50) }

// CDFPoint is one point of an empirical cumulative distribution function.
type CDFPoint struct {
	Value float64 // sample value
	P     float64 // fraction of samples <= Value
}

// EmpiricalCDF returns the empirical CDF of x as sorted (value, probability)
// pairs, one per sample.
func EmpiricalCDF(x []float64) []CDFPoint {
	s := make([]float64, len(x))
	copy(s, x)
	sort.Float64s(s)
	out := make([]CDFPoint, len(s))
	n := float64(len(s))
	for i, v := range s {
		out[i] = CDFPoint{Value: v, P: float64(i+1) / n}
	}
	return out
}

// MeanVec returns the element-wise mean of a set of equal-length vectors.
// It panics if the set is empty or ragged.
func MeanVec(xs [][]float64) []float64 {
	if len(xs) == 0 {
		panic("dsp: MeanVec of empty set")
	}
	d := len(xs[0])
	out := make([]float64, d)
	for _, x := range xs {
		if len(x) != d {
			panic("dsp: MeanVec with ragged vectors")
		}
		for i, v := range x {
			out[i] += v
		}
	}
	inv := 1 / float64(len(xs))
	for i := range out {
		out[i] *= inv
	}
	return out
}

// CovarianceMatrix returns the d×d sample covariance matrix (normalized by
// n-1, or n when n == 1) of the row vectors xs.
func CovarianceMatrix(xs [][]float64) *Matrix {
	mu := MeanVec(xs)
	d := len(mu)
	cov := NewMatrix(d, d)
	for _, x := range xs {
		for i := 0; i < d; i++ {
			di := x[i] - mu[i]
			for j := i; j < d; j++ {
				cov.Data[i*d+j] += di * (x[j] - mu[j])
			}
		}
	}
	norm := float64(len(xs) - 1)
	if norm < 1 {
		norm = 1
	}
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			v := cov.Data[i*d+j] / norm
			cov.Data[i*d+j] = v
			cov.Data[j*d+i] = v
		}
	}
	return cov
}
