package dsp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanVarianceMedian(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	if Mean(x) != 3 {
		t.Fatalf("Mean = %v", Mean(x))
	}
	if Variance(x) != 2 {
		t.Fatalf("Variance = %v", Variance(x))
	}
	if Median(x) != 3 {
		t.Fatalf("Median = %v", Median(x))
	}
	if Median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatalf("even Median = %v", Median([]float64{1, 2, 3, 4}))
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty-slice stats should be 0")
	}
	if !math.IsNaN(Median(nil)) {
		t.Fatal("Median(nil) should be NaN")
	}
}

func TestPercentileBounds(t *testing.T) {
	x := []float64{9, 1, 5}
	if Percentile(x, 0) != 1 || Percentile(x, 100) != 9 {
		t.Fatal("percentile bounds wrong")
	}
	// Input must not be reordered.
	if x[0] != 9 || x[1] != 1 || x[2] != 5 {
		t.Fatal("Percentile mutated input")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(x, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEmpiricalCDF(t *testing.T) {
	cdf := EmpiricalCDF([]float64{3, 1, 2})
	if len(cdf) != 3 {
		t.Fatalf("len = %d", len(cdf))
	}
	if cdf[0].Value != 1 || cdf[2].Value != 3 {
		t.Fatalf("values not sorted: %v", cdf)
	}
	if cdf[2].P != 1 {
		t.Fatalf("last P = %v", cdf[2].P)
	}
	if !sort.SliceIsSorted(cdf, func(i, j int) bool { return cdf[i].P < cdf[j].P }) {
		t.Fatal("CDF P not monotone")
	}
}

func TestMovingAverageConstant(t *testing.T) {
	x := []float64{5, 5, 5, 5, 5}
	y := MovingAverage(x, 3)
	for i, v := range y {
		if v != 5 {
			t.Fatalf("index %d: %v", i, v)
		}
	}
}

func TestMovingAverageSmooths(t *testing.T) {
	x := []float64{0, 0, 10, 0, 0}
	y := MovingAverage(x, 3)
	if math.Abs(y[2]-10.0/3) > 1e-12 {
		t.Fatalf("center = %v", y[2])
	}
}

func TestMedianFilterRejectsSpike(t *testing.T) {
	x := []float64{1, 1, 100, 1, 1}
	y := MedianFilter(x, 3)
	if y[2] != 1 {
		t.Fatalf("spike survived: %v", y)
	}
}

func TestDominantFrequency(t *testing.T) {
	const fs = 100.0
	const f0 = 7.3
	n := 512
	x := make([]float64, n)
	for i := range x {
		x[i] = 2 + math.Sin(2*math.Pi*f0*float64(i)/fs) // DC offset must be ignored
	}
	got := DominantFrequency(x, fs)
	if math.Abs(got-f0) > 0.2 {
		t.Fatalf("DominantFrequency = %v want %v", got, f0)
	}
}

func TestFindPeaks(t *testing.T) {
	x := []float64{0, 1, 0, 3, 0, 2, 0}
	peaks := FindPeaks(x, 0.5, 1)
	if len(peaks) != 3 {
		t.Fatalf("got %d peaks %v", len(peaks), peaks)
	}
	if peaks[0].Index != 3 || peaks[1].Index != 5 || peaks[2].Index != 1 {
		t.Fatalf("order wrong: %v", peaks)
	}
	// min distance suppresses both smaller neighbors (each within 2 samples).
	peaks = FindPeaks(x, 0.5, 3)
	if len(peaks) != 1 || peaks[0].Index != 3 {
		t.Fatalf("minDistance: %v", peaks)
	}
	// min distance 2 keeps the farther smaller peak.
	peaks = FindPeaks(x, 0.5, 2)
	if len(peaks) != 3 {
		t.Fatalf("minDistance=2: %v", peaks)
	}
	// threshold
	peaks = FindPeaks(x, 2.5, 1)
	if len(peaks) != 1 || peaks[0].Index != 3 {
		t.Fatalf("threshold: %v", peaks)
	}
}

func TestFindPeaksPlateau(t *testing.T) {
	x := []float64{0, 2, 2, 0}
	peaks := FindPeaks(x, 0, 1)
	if len(peaks) != 1 || peaks[0].Index != 1 {
		t.Fatalf("plateau: %v", peaks)
	}
}

func TestFindPeaks2D(t *testing.T) {
	g := []float64{
		0, 0, 0, 0,
		0, 5, 0, 0,
		0, 0, 0, 3,
		0, 0, 0, 0,
	}
	peaks := FindPeaks2D(g, 4, 4, 1, 1)
	if len(peaks) != 2 {
		t.Fatalf("peaks = %v", peaks)
	}
	if peaks[0].Row != 1 || peaks[0].Col != 1 || peaks[0].Value != 5 {
		t.Fatalf("strongest = %v", peaks[0])
	}
	if peaks[1].Row != 2 || peaks[1].Col != 3 {
		t.Fatalf("second = %v", peaks[1])
	}
	// Separation: minDistance 3 suppresses the weaker peak (Chebyshev dist 2).
	peaks = FindPeaks2D(g, 4, 4, 1, 3)
	if len(peaks) != 1 {
		t.Fatalf("separation: %v", peaks)
	}
}

func TestQuadraticInterp(t *testing.T) {
	// Parabola peaked exactly between samples 1 and 2 -> offset +0.5 at 1.
	x := []float64{0, 3, 3, 0}
	if off := QuadraticInterp(x, 1); math.Abs(off-0.5) > 1e-12 {
		t.Fatalf("off = %v", off)
	}
	if off := QuadraticInterp(x, 0); off != 0 {
		t.Fatalf("boundary off = %v", off)
	}
}

func TestWindowCoefficients(t *testing.T) {
	for _, w := range []Window{Rectangular, Hann, Hamming, Blackman} {
		c := w.Coefficients(64)
		if len(c) != 64 {
			t.Fatalf("%v: len %d", w, len(c))
		}
		for i, v := range c {
			if v < -1e-12 || v > 1+1e-12 {
				t.Fatalf("%v coeff[%d] = %v out of [0,1]", w, i, v)
			}
		}
	}
	// Hann endpoints are 0, Hamming endpoints are 0.08.
	h := Hann.Coefficients(9)
	if math.Abs(h[0]) > 1e-12 || math.Abs(h[8]) > 1e-12 {
		t.Fatal("hann endpoints nonzero")
	}
	hm := Hamming.Coefficients(9)
	if math.Abs(hm[0]-0.08) > 1e-12 {
		t.Fatalf("hamming endpoint %v", hm[0])
	}
	if Rectangular.String() != "rectangular" || Hann.String() != "hann" {
		t.Fatal("window names")
	}
	if got := Window(42).String(); got != "unknown" {
		t.Fatalf("unknown window name %q", got)
	}
	if Hann.Coefficients(0) != nil {
		t.Fatal("n=0 should be nil")
	}
	if c := Hann.Coefficients(1); len(c) != 1 || c[0] != 1 {
		t.Fatal("n=1 should be [1]")
	}
}
