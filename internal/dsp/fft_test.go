package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func almostEqualC(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

// naiveDFT is the O(n^2) reference used to validate the FFT.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			s += x[t] * cmplx.Exp(complex(0, sign*2*math.Pi*float64(k)*float64(t)/float64(n)))
		}
		if inverse {
			s /= complex(float64(n), 0)
		}
		out[k] = s
	}
	return out
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// fftOf returns the forward transform of x, computed in place on a copy.
func fftOf(x []complex128) []complex128 {
	y := append([]complex128(nil), x...)
	FFTInPlace(y)
	return y
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 31, 32, 100, 128, 257} {
		x := randComplex(rng, n)
		got := fftOf(x)
		want := naiveDFT(x, false)
		for i := range got {
			if !almostEqualC(got[i], want[i], 1e-8*float64(n)) {
				t.Fatalf("n=%d bin %d: got %v want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 3, 8, 15, 64, 129} {
		x := randComplex(rng, n)
		y := fftOf(x)
		IFFTInPlace(y)
		for i := range x {
			if !almostEqualC(x[i], y[i], 1e-9*float64(n)) {
				t.Fatalf("n=%d index %d: got %v want %v", n, i, y[i], x[i])
			}
		}
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 8 << (uint(r.Intn(3)))
		x := randComplex(r, n)
		y := randComplex(r, n)
		a := complex(r.NormFloat64(), r.NormFloat64())
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a*x[i] + y[i]
		}
		fx, fy, fsum := fftOf(x), fftOf(y), fftOf(sum)
		for i := range fsum {
			if !almostEqualC(fsum[i], a*fx[i]+fy[i], 1e-7) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFFTParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 16 + r.Intn(50) // exercises Bluestein path for non-powers of two
		x := randComplex(r, n)
		fx := fftOf(x)
		var et, ef float64
		for i := range x {
			et += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			ef += real(fx[i])*real(fx[i]) + imag(fx[i])*imag(fx[i])
		}
		return math.Abs(et-ef/float64(n)) < 1e-7*et
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTSingleToneBin(t *testing.T) {
	const n = 256
	const bin = 37
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*float64(bin)*float64(i)/float64(n)))
	}
	mag := Magnitude(fftOf(x))
	best, bestVal := 0, 0.0
	for i, v := range mag {
		if v > bestVal {
			best, bestVal = i, v
		}
	}
	if best != bin {
		t.Fatalf("tone at bin %d detected at %d", bin, best)
	}
	if math.Abs(bestVal-float64(n)) > 1e-6 {
		t.Fatalf("tone magnitude %v, want %v", bestVal, n)
	}
}

func TestNextPowerOfTwo(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPowerOfTwo(in); got != want {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", in, got, want)
		}
	}
}

// Magnitude is the one spectrum detector kept here; power is the squared
// magnitude and is formed inline by its callers.
func TestMagnitudePowerDB(t *testing.T) {
	x := []complex128{3 + 4i, 0}
	if m := Magnitude(x); m[0] != 5 || m[1] != 0 {
		t.Fatalf("Magnitude = %v", m)
	}
	// math.Hypot scales before squaring, so a magnitude that is finite
	// stays finite where re²+im² would overflow.
	if m := Magnitude([]complex128{complex(3e200, 4e200)}); math.Abs(m[0]-5e200) > 1e-15*5e200 {
		t.Fatalf("Magnitude(3e200+4e200i) = %v, want 5e200", m[0])
	}
	if m := Magnitude(nil); len(m) != 0 {
		t.Fatalf("Magnitude(nil) = %v, want empty", m)
	}
}

func BenchmarkFFT1024(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := randComplex(rng, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFTInPlace(x)
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

// TestRFFTEdgeCases covers DominantFrequency's degenerate inputs: series too
// short to estimate, a constant series (nothing but DC, which the mean
// removal cancels), and the shortest accepted length.
func TestRFFTEdgeCases(t *testing.T) {
	for n := 0; n < 4; n++ {
		if got := DominantFrequency(make([]float64, n), 10); got != 0 {
			t.Fatalf("n=%d: got %v, want 0 for a too-short series", n, got)
		}
	}
	for _, n := range []int{4, 5, 64} {
		x := make([]float64, n)
		for i := range x {
			x[i] = 3.25
		}
		if got := DominantFrequency(x, 10); got != 0 {
			t.Fatalf("constant n=%d: got %v, want 0", n, got)
		}
	}
	// n = 4: only bin 1 is a candidate, and it sits at the edge of the
	// kept half spectrum, so no interpolation applies: fs/4 exactly.
	if got := DominantFrequency([]float64{0, 1, 0, -1}, 8); got != 2 {
		t.Fatalf("n=4 quarter-rate tone: got %v, want 2", got)
	}
}

// TestRFFTToMatchesComplexHalfSpectrum checks DominantFrequency recovers an
// off-bin tone (under a DC offset) to well within one bin on every transform
// path: radix-2 lengths, odd lengths and even non-power-of-two lengths (both
// of the latter run Bluestein).
func TestRFFTToMatchesComplexHalfSpectrum(t *testing.T) {
	const fs = 50.0
	for _, n := range []int{64, 256, 1024, 63, 101, 313, 100, 300} {
		for _, cycles := range []float64{5.3, 11.7, 0.3 * float64(n)} {
			f0 := cycles * fs / float64(n)
			x := make([]float64, n)
			for i := range x {
				x[i] = -1.5 + math.Sin(2*math.Pi*f0*float64(i)/fs+0.4)
			}
			got := DominantFrequency(x, fs)
			if tol := 0.25 * fs / float64(n); math.Abs(got-f0) > tol {
				t.Fatalf("n=%d f0=%v: got %v, want within %v", n, f0, got, tol)
			}
		}
	}
}
