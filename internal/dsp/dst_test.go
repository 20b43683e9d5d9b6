package dsp

import (
	"math/cmplx"
	"math/rand"
	"testing"
)

func randComplexSeed(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// Magnitude computes math.Hypot directly; cmplx.Abs wraps the same kernel,
// so the values must match exactly.
func TestMagnitudeMatchesCmplxAbs(t *testing.T) {
	x := randComplexSeed(257, 7)
	got := Magnitude(x)
	for i, v := range x {
		if got[i] != cmplx.Abs(v) {
			t.Fatalf("Magnitude[%d] = %v, cmplx.Abs = %v", i, got[i], cmplx.Abs(v))
		}
	}
}

// WindowedFFTTo gathers its input in permuted order while writing dst, so
// an aliased destination must panic rather than corrupt the transform.
func TestToVariantAliasing(t *testing.T) {
	x := randComplexSeed(64, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("WindowedFFTTo(x, x, win) did not panic")
		}
	}()
	WindowedFFTTo(x, x, Hann.Coefficients(len(x)))
}

func TestToVariantLengthPanics(t *testing.T) {
	x := randComplexSeed(8, 1)
	win := Hann.Coefficients(8)
	for name, fn := range map[string]func(){
		"WindowedFFTTo dst": func() { WindowedFFTTo(make([]complex128, 7), x, win) },
		"WindowedFFTTo win": func() { WindowedFFTTo(make([]complex128, 8), x, win[:7]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a short slice did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// After the plan (and, for Bluestein sizes, the pooled scratch) is warm,
// the complex transforms allocate nothing — the foundation of the
// zero-allocation steady state upstream.
func TestFFTToZeroAllocsSteadyState(t *testing.T) {
	for _, n := range []int{512, 100} { // radix-2 and Bluestein
		x := randComplexSeed(n, int64(n))
		win := Hann.Coefficients(n)
		dst := make([]complex128, n)
		WindowedFFTTo(dst, x, win) // warm plan + scratch pool
		if allocs := testing.AllocsPerRun(100, func() { FFTInPlace(dst) }); allocs != 0 {
			t.Errorf("n=%d: FFTInPlace allocates %v per op in steady state, want 0", n, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { IFFTInPlace(dst) }); allocs != 0 {
			t.Errorf("n=%d: IFFTInPlace allocates %v per op in steady state, want 0", n, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { WindowedFFTTo(dst, x, win) }); allocs != 0 {
			t.Errorf("n=%d: WindowedFFTTo allocates %v per op in steady state, want 0", n, allocs)
		}
	}
}
