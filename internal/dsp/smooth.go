package dsp

import "sort"

// MovingAverage returns the centered moving average of x with the given odd
// window size. Edges use the available (shorter) window. window < 1 is
// treated as 1.
func MovingAverage(x []float64, window int) []float64 {
	if window < 1 {
		window = 1
	}
	half := window / 2
	out := make([]float64, len(x))
	for i := range x {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= len(x) {
			hi = len(x) - 1
		}
		s := 0.0
		for j := lo; j <= hi; j++ {
			s += x[j]
		}
		out[i] = s / float64(hi-lo+1)
	}
	return out
}

// MedianFilter returns the centered running median of x with the given odd
// window size, shrinking the window at the edges.
func MedianFilter(x []float64, window int) []float64 {
	if window < 1 {
		window = 1
	}
	half := window / 2
	out := make([]float64, len(x))
	buf := make([]float64, 0, window)
	for i := range x {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= len(x) {
			hi = len(x) - 1
		}
		buf = buf[:0]
		buf = append(buf, x[lo:hi+1]...)
		sort.Float64s(buf)
		n := len(buf)
		if n%2 == 1 {
			out[i] = buf[n/2]
		} else {
			out[i] = 0.5 * (buf[n/2-1] + buf[n/2])
		}
	}
	return out
}
