package dsp

import (
	"math"
	"math/cmplx"

	"rfprotect/internal/parallel"
)

// This file implements the real-input DFT. A real signal's spectrum is
// conjugate-symmetric — X[n-k] = conj(X[k]) — so only the first n/2+1 bins
// carry information. For power-of-two lengths the transform runs a single
// complex FFT of HALF the length: the even/odd samples are packed as
// z[k] = x[2k] + i·x[2k+1], transformed, and the two interleaved real
// spectra are separated and recombined with one unpack pass. Odd and
// Bluestein lengths fall back to widening the input into pooled complex
// scratch and keeping the first half of the full transform.

// rfftPlan caches the size-dependent pieces of one real-input transform
// length: the unpack twiddles e^{-2πik/n} for the packed fast path, plus
// recycled scratch (length n/2 packed buffers on the fast path, or
// length-n widening buffers on the fallback).
type rfftPlan struct {
	n    int
	pack int          // scratch length: n/2 on the packed fast path, n on the fallback
	tw   []complex128 // unpack twiddles e^{-2πik/n}, k = 0..n/2; nil selects the fallback

	scratch parallel.FreeList[[]complex128]
}

var rfftPlans parallel.Cache[int, *rfftPlan]

// rfftPlanFor returns the shared real-input plan for length n, building it
// on first use.
func rfftPlanFor(n int) *rfftPlan {
	return rfftPlans.Get(n, newRFFTPlan)
}

func newRFFTPlan(n int) *rfftPlan {
	p := &rfftPlan{n: n, pack: n}
	if IsPowerOfTwo(n) && n >= 2 {
		p.pack = n / 2
		p.tw = make([]complex128, n/2+1)
		for k := range p.tw {
			p.tw[k] = cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
		}
		if p.pack > 1 {
			planFor(p.pack) // warm the half-length complex plan
		}
	} else if n > 1 {
		bluesteinPlanFor(n) // warm the widening fallback's plan
	}
	return p
}

// WindowedRFFTTo computes the DFT of the element-wise product x·win into
// dst and returns dst: the n/2+1 non-negative-frequency bins of the real
// signal's spectrum. The window multiply is fused into the transform's pack
// (or widening) pass so the windowed samples are never materialized. win
// must have the same length as x and dst must have length len(x)/2+1 (the
// call panics otherwise). Power-of-two lengths use the half-length packed
// transform, which matches the complex transform of the widened input up to
// rounding; other lengths widen internally and are bit-identical to it.
// After the per-size plan is cached, WindowedRFFTTo performs no
// allocations.
func WindowedRFFTTo(dst []complex128, x, win []float64) []complex128 {
	if len(win) != len(x) {
		panic("dsp: WindowedRFFTTo with mismatched window length")
	}
	if len(dst) != len(x)/2+1 {
		panic("dsp: WindowedRFFTTo with mismatched lengths")
	}
	n := len(x)
	switch n {
	case 0:
		dst[0] = 0
		return dst
	case 1:
		dst[0] = complex(x[0]*win[0], 0)
		return dst
	}
	p := rfftPlanFor(n)
	z, ok := p.scratch.Get()
	if !ok {
		z = make([]complex128, p.pack)
	}
	if p.tw == nil {
		// Fallback (odd / Bluestein lengths): widen into the complex
		// scratch, run the full transform, keep the half spectrum.
		for i, v := range x {
			z[i] = complex(v*win[i], 0)
		}
		fftInPlace(z, false)
		copy(dst, z[:n/2+1])
		p.scratch.Put(z)
		return dst
	}

	// Fast path: pack even/odd samples into one half-length complex signal.
	n2 := n / 2
	for k := 0; k < n2; k++ {
		z[k] = complex(x[2*k]*win[2*k], x[2*k+1]*win[2*k+1])
	}
	fftInPlace(z, false)

	// Unpack: with E/O the spectra of the even/odd sample streams,
	// Z[k] = E[k] + i·O[k], so conjugate symmetry separates them:
	//   E[k] = (Z[k] + conj(Z[n2-k]))/2
	//   O[k] = (Z[k] - conj(Z[n2-k]))/(2i)
	// and the full-length spectrum recombines as X[k] = E[k] + w^k·O[k]
	// with w = e^{-2πi/n}. Indices are taken mod n2 so k = 0 and k = n2
	// (the DC and Nyquist bins) reuse Z[0].
	for k := 0; k <= n2; k++ {
		i := k
		if i == n2 {
			i = 0
		}
		j := n2 - k
		if j == n2 {
			j = 0
		}
		zk, zc := z[i], z[j]
		er := 0.5 * (real(zk) + real(zc))
		ei := 0.5 * (imag(zk) - imag(zc))
		or := 0.5 * (imag(zk) + imag(zc))
		oi := 0.5 * (real(zc) - real(zk))
		w := p.tw[k]
		dst[k] = complex(er+real(w)*or-imag(w)*oi, ei+real(w)*oi+imag(w)*or)
	}
	p.scratch.Put(z)
	return dst
}

// DominantFrequency estimates the strongest nonzero frequency component of a
// real series sampled at fs Hz, using a windowed real-input FFT with
// quadratic peak interpolation. It returns 0 for series shorter than 4
// samples.
func DominantFrequency(x []float64, fs float64) float64 {
	n := len(x)
	if n < 4 {
		return 0
	}
	// Remove the mean so the DC bin does not dominate.
	m := Mean(x)
	c := make([]float64, n)
	for i, v := range x {
		c[i] = v - m
	}
	spec := WindowedRFFTTo(make([]complex128, n/2+1), c, Hann.Coefficients(n))
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
