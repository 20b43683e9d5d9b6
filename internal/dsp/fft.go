package dsp

import (
	"math"
	"math/bits"
)

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// NextPowerOfTwo returns the smallest power of two >= n. It panics for n <= 0.
func NextPowerOfTwo(n int) int {
	if n <= 0 {
		panic("dsp: NextPowerOfTwo requires n > 0")
	}
	if IsPowerOfTwo(n) {
		return n
	}
	return 1 << bits.Len(uint(n))
}

// FFTInPlace transforms x in place. Non-power-of-two lengths draw their
// Bluestein scratch from a per-plan pool, so the steady state allocates
// nothing for any length.
func FFTInPlace(x []complex128) { fftInPlace(x, false) }

// IFFTInPlace inverse-transforms x in place with 1/N normalization.
func IFFTInPlace(x []complex128) { fftInPlace(x, true) }

func fftInPlace(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	if IsPowerOfTwo(n) {
		radix2(x, inverse)
	} else {
		bluestein(x, inverse)
	}
	if inverse {
		inv := 1 / float64(n)
		for i := range x {
			x[i] *= complex(inv, 0)
		}
	}
}

// radix2 is an iterative decimation-in-time FFT for power-of-two lengths,
// driven by the cached per-size plan (bit-reversal table plus twiddle
// tables). When inverse is true the conjugate twiddle table is used;
// normalization is left to the caller.
func radix2(x []complex128, inverse bool) {
	p := planFor(len(x))
	for i, j := range p.rev {
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	radix2Stages(x, p, inverse)
}

// radix2Stages runs the butterfly stages of a planned radix-2 transform over
// data that is already in bit-reversed order — the second half of radix2,
// split out so WindowedFFTTo can gather inputs straight into bit-reversed
// positions and skip the separate permutation pass. Size 8 — the slow-time length of the Doppler
// window — dispatches to a fully unrolled kernel that performs the identical
// butterflies on the identical twiddle tables, so the specialization changes
// cost, never bits.
func radix2Stages(x []complex128, p *fftPlan, inverse bool) {
	stages := p.fwd
	if inverse {
		stages = p.inv
	}
	if p.n == 8 {
		fft8(x, stages)
		return
	}
	n := p.n
	s := 0
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		tw := stages[s]
		s++
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * tw[k]
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

// fft8 is the unrolled size-8 stage kernel: the same butterflies radix2Stages
// would run, in the same order, reading the same plan twiddle tables — every
// multiplication is kept (including the trivial w⁰ ones) so the arithmetic,
// and therefore every output bit, matches the generic loop exactly.
func fft8(x []complex128, stages [][]complex128) {
	x = x[:8]
	t0, t1, t2 := stages[0], stages[1], stages[2]
	// Stage size 2: four butterflies, twiddle w⁰.
	w := t0[0]
	a := x[0]
	b := x[1] * w
	x[0], x[1] = a+b, a-b
	a = x[2]
	b = x[3] * w
	x[2], x[3] = a+b, a-b
	a = x[4]
	b = x[5] * w
	x[4], x[5] = a+b, a-b
	a = x[6]
	b = x[7] * w
	x[6], x[7] = a+b, a-b
	// Stage size 4: two blocks of two butterflies.
	w0, w1 := t1[0], t1[1]
	a = x[0]
	b = x[2] * w0
	x[0], x[2] = a+b, a-b
	a = x[1]
	b = x[3] * w1
	x[1], x[3] = a+b, a-b
	a = x[4]
	b = x[6] * w0
	x[4], x[6] = a+b, a-b
	a = x[5]
	b = x[7] * w1
	x[5], x[7] = a+b, a-b
	// Stage size 8: one block of four butterflies.
	w0, w1, w2, w3 := t2[0], t2[1], t2[2], t2[3]
	a = x[0]
	b = x[4] * w0
	x[0], x[4] = a+b, a-b
	a = x[1]
	b = x[5] * w1
	x[1], x[5] = a+b, a-b
	a = x[2]
	b = x[6] * w2
	x[2], x[6] = a+b, a-b
	a = x[3]
	b = x[7] * w3
	x[3], x[7] = a+b, a-b
}

// WindowedFFTTo computes the DFT of the element-wise product x·win into dst
// and returns dst, fusing the window multiply into the transform's first
// pass: for power-of-two lengths the windowed samples are gathered directly
// into bit-reversed order (the permutation is an involution, so the gather
// IS the swap pass) and only the butterfly stages run. The output is
// bit-identical to windowing into dst followed by FFTInPlace(dst) — the
// fusion removes a full pass over the data, not any arithmetic.
//
// dst and win must have the same length as x, and dst must not alias x (the
// gather reads x in permuted order while writing dst); violations panic.
func WindowedFFTTo(dst, x []complex128, win []float64) []complex128 {
	n := len(x)
	if len(dst) != n || len(win) != n {
		panic("dsp: WindowedFFTTo with mismatched lengths")
	}
	if n == 0 {
		return dst
	}
	if &dst[0] == &x[0] {
		panic("dsp: WindowedFFTTo with aliased dst")
	}
	if !IsPowerOfTwo(n) {
		for i, v := range x {
			dst[i] = v * complex(win[i], 0)
		}
		fftInPlace(dst, false)
		return dst
	}
	p := planFor(n)
	for i, j := range p.rev {
		dst[i] = x[j] * complex(win[j], 0)
	}
	radix2Stages(dst, p, false)
	return dst
}

// bluestein computes an arbitrary-length DFT as a convolution, using two
// power-of-two FFTs. The chirp and the convolution kernel's FFT come from
// the cached per-size plan; only the data-dependent transforms run here.
func bluestein(x []complex128, inverse bool) {
	n := len(x)
	p := bluesteinPlanFor(n)
	w, bfft := p.wFwd, p.bFwd
	if inverse {
		w, bfft = p.wInv, p.bInv
	}
	// Length-m convolution scratch; every element is overwritten below.
	a, ok := p.scratch.Get()
	if !ok {
		a = make([]complex128, p.m)
	}
	defer p.scratch.Put(a)
	for k := 0; k < n; k++ {
		a[k] = x[k] * w[k]
	}
	for k := n; k < p.m; k++ {
		a[k] = 0
	}
	radix2(a, false)
	for i := range a {
		a[i] *= bfft[i]
	}
	radix2(a, true)
	scale := complex(1/float64(p.m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * scale * w[k]
	}
}

// Magnitude returns |x| element-wise as a new slice. The magnitude is
// computed with math.Hypot directly — the same overflow-safe kernel
// cmplx.Abs wraps — which keeps the loop free of the extra call layer.
func Magnitude(x []complex128) []float64 {
	dst := make([]float64, len(x))
	for i, v := range x {
		dst[i] = math.Hypot(real(v), imag(v))
	}
	return dst
}

// DominantFrequency estimates the strongest nonzero frequency component of a
// real series sampled at fs Hz, using a Hann-windowed FFT with quadratic
// peak interpolation over the non-negative-frequency bins. It returns 0 for
// series shorter than 4 samples.
func DominantFrequency(x []float64, fs float64) float64 {
	n := len(x)
	if n < 4 {
		return 0
	}
	// Remove the mean so the DC bin does not dominate. The series is real,
	// so its spectrum is conjugate-symmetric and the first n/2 bins carry
	// every candidate peak.
	m := Mean(x)
	c := make([]complex128, n)
	for i, v := range x {
		c[i] = complex(v-m, 0)
	}
	spec := WindowedFFTTo(make([]complex128, n), c, Hann.Coefficients(n))
	mag := Magnitude(spec[:n/2])
	best, bestVal := 0, 0.0
	for i := 1; i < len(mag); i++ {
		if mag[i] > bestVal {
			best, bestVal = i, mag[i]
		}
	}
	if best == 0 {
		return 0
	}
	off := QuadraticInterp(mag, best)
	return (float64(best) + off) * fs / float64(n)
}
