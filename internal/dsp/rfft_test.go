package dsp

import (
	"math/rand"
	"reflect"
	"testing"
)

// realSpectrumRef computes the half spectrum through the complex path:
// widen the windowed x to complex128 and keep the first n/2+1 bins of
// FFTInPlace.
func realSpectrumRef(x, win []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v*win[i], 0)
	}
	FFTInPlace(c)
	return c[:len(x)/2+1]
}

// TestRFFTToMatchesComplexHalfSpectrum is the real-input transform's
// property test: for random real inputs under an all-ones window (v*1 == v,
// so the unwindowed transform bit for bit), WindowedRFFTTo equals the half
// spectrum of the complex transform — bit-identically on the widening
// fallback (odd / Bluestein lengths run the very same operations), and up
// to rounding on the power-of-two packed fast path (half-length transform +
// unpack is different arithmetic for the same spectrum).
func TestRFFTToMatchesComplexHalfSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct {
		n     int
		exact bool
	}{
		{2, false}, {4, false}, {8, false}, {16, false}, {64, false},
		{128, false}, {512, false}, {1024, false},
		{3, true}, {5, true}, {7, true}, {12, true}, {17, true},
		{100, true}, {313, true},
	}
	for _, tc := range cases {
		ones := Rectangular.Coefficients(tc.n)
		for trial := 0; trial < 8; trial++ {
			x := make([]float64, tc.n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			got := WindowedRFFTTo(make([]complex128, tc.n/2+1), x, ones)
			want := realSpectrumRef(x, ones)
			if len(got) != len(want) {
				t.Fatalf("n=%d: got %d bins, want %d", tc.n, len(got), len(want))
			}
			for k := range want {
				if tc.exact {
					if got[k] != want[k] {
						t.Fatalf("n=%d bin %d: fallback path not bit-identical: got %v want %v",
							tc.n, k, got[k], want[k])
					}
					continue
				}
				// Scale-relative tolerance: the packed path reassociates
				// sums, so compare against the spectrum's magnitude scale.
				if !almostEqualC(got[k], want[k], 1e-9*float64(tc.n)) {
					t.Fatalf("n=%d bin %d: got %v want %v", tc.n, k, got[k], want[k])
				}
			}
		}
	}
}

// TestWindowedRFFTToBitIdenticalToPreWindowed pins the fusion contract: the
// window multiply moved into the pack/widen pass performs the identical
// products, so fused output equals window-then-transform exactly.
func TestWindowedRFFTToBitIdenticalToPreWindowed(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{2, 8, 64, 512, 5, 12, 100} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		win := Hann.Coefficients(n)
		xw := make([]float64, n)
		for i := range x {
			xw[i] = x[i] * win[i]
		}
		got := WindowedRFFTTo(make([]complex128, n/2+1), x, win)
		want := WindowedRFFTTo(make([]complex128, n/2+1), xw, Rectangular.Coefficients(n))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: fused windowed transform differs from pre-windowed", n)
		}
	}
}

// TestWindowedFFTToBitIdentical pins the complex-side fusion: gathering
// windowed samples straight into bit-reversed order must equal the
// window-copy + FFTInPlace sequence exactly, for radix-2 sizes (including
// the unrolled size 8) and the Bluestein fallback alike.
func TestWindowedFFTToBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 512, 3, 7, 12, 100} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		win := Hann.Coefficients(n)
		want := make([]complex128, n)
		for i := range x {
			want[i] = x[i] * complex(win[i], 0)
		}
		FFTInPlace(want)
		got := WindowedFFTTo(make([]complex128, n), x, win)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: WindowedFFTTo differs from window-then-FFTInPlace", n)
		}
	}
}

// TestFFT8BitIdenticalToGenericStages replays the generic butterfly loop
// over the size-8 plan's tables and checks the unrolled kernel reproduces it
// bit for bit, in both directions.
func TestFFT8BitIdenticalToGenericStages(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	p := planFor(8)
	for _, inverse := range []bool{false, true} {
		stages := p.fwd
		if inverse {
			stages = p.inv
		}
		for trial := 0; trial < 16; trial++ {
			x := make([]complex128, 8)
			for i := range x {
				x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			want := append([]complex128(nil), x...)
			s := 0
			for size := 2; size <= 8; size <<= 1 {
				half := size >> 1
				tw := stages[s]
				s++
				for start := 0; start < 8; start += size {
					for k := 0; k < half; k++ {
						a := want[start+k]
						b := want[start+k+half] * tw[k]
						want[start+k] = a + b
						want[start+k+half] = a - b
					}
				}
			}
			got := append([]complex128(nil), x...)
			fft8(got, stages)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("inverse=%v: fft8 differs from generic stage loop", inverse)
			}
		}
	}
}

func TestRFFTEdgeCases(t *testing.T) {
	if got := WindowedRFFTTo(make([]complex128, 1), nil, nil); got[0] != 0 {
		t.Fatalf("empty input: got %v, want 0", got[0])
	}
	one := Rectangular.Coefficients(1)
	if got := WindowedRFFTTo(make([]complex128, 1), []float64{3.5}, one); got[0] != complex(3.5, 0) {
		t.Fatalf("n=1: got %v, want 3.5", got[0])
	}
	win := []float64{0.25}
	if got := WindowedRFFTTo(make([]complex128, 1), []float64{8}, win); got[0] != complex(2, 0) {
		t.Fatalf("windowed n=1: got %v, want 2", got[0])
	}
	if got := WindowedRFFTTo(make([]complex128, 2), []float64{1, 2}, Rectangular.Coefficients(2)); len(got) != 2 ||
		!almostEqualC(got[0], complex(3, 0), 1e-12) ||
		!almostEqualC(got[1], complex(-1, 0), 1e-12) {
		t.Fatalf("n=2: got %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched dst length")
		}
	}()
	WindowedRFFTTo(make([]complex128, 3), make([]float64, 8), Rectangular.Coefficients(8))
}

// TestRFFTZeroAllocsSteadyState pins the pooled-scratch contract for both
// path families once the per-size plan is cached.
func TestRFFTZeroAllocsSteadyState(t *testing.T) {
	for _, n := range []int{512, 100} {
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i%7) - 3
		}
		win := Hann.Coefficients(n)
		dst := make([]complex128, n/2+1)
		WindowedRFFTTo(dst, x, win) // warm the plan
		if a := testing.AllocsPerRun(50, func() { WindowedRFFTTo(dst, x, win) }); a != 0 {
			t.Fatalf("WindowedRFFTTo n=%d: %v allocs/op, want 0", n, a)
		}
	}
}

// TestPeak2DFinderMatchesFindPeaks2D checks the reusable finder returns the
// exact result of the allocating function across reuses of one finder.
func TestPeak2DFinderMatchesFindPeaks2D(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	var f Peak2DFinder
	for trial := 0; trial < 20; trial++ {
		rows, cols := 4+rng.Intn(12), 4+rng.Intn(12)
		g := make([]float64, rows*cols)
		for i := range g {
			g[i] = rng.Float64()
		}
		minVal := 0.3 + 0.4*rng.Float64()
		minDist := 1 + rng.Intn(3)
		want := FindPeaks2D(g, rows, cols, minVal, minDist)
		got := f.Find(g, rows, cols, minVal, minDist)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d peaks, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d peak %d: got %+v want %+v", trial, i, got[i], want[i])
			}
		}
	}
	g := make([]float64, 16*16)
	for i := range g {
		g[i] = float64((i*2654435761)%97) / 97
	}
	f.Find(g, 16, 16, 0.5, 2) // warm the scratch
	if a := testing.AllocsPerRun(50, func() { f.Find(g, 16, 16, 0.5, 2) }); a != 0 {
		t.Fatalf("Peak2DFinder.Find: %v allocs/op, want 0", a)
	}
}
