// Package dsp provides the signal-processing substrate used throughout the
// RF-Protect reproduction: FFTs, window functions, peak detection,
// smoothing, phase utilities, basic statistics, and the small
// dense-linear-algebra kernels (symmetric eigendecomposition, SPD matrix
// square root) needed by the FID metric.
//
// Everything operates on float64 / complex128 slices and is allocation-
// conscious: hot paths accept destination buffers where it matters.
//
// # FFT conventions
//
// FFT computes the unnormalized forward DFT with the engineering sign
// convention, X[k] = Σ x[n]·exp(−j2πkn/N); IFFT applies the opposite sign
// and the full 1/N normalization, so IFFT(FFT(x)) == x up to rounding.
// Power-of-two lengths run an iterative radix-2 Cooley–Tukey; every other
// length goes through Bluestein's chirp-z convolution, so any length is
// supported. Bin k of an N-point transform at sample rate fs corresponds
// to frequency BinFrequency(k, N, fs), with bins above N/2 aliased to
// negative frequencies; FFTShift recenters a spectrum around DC.
//
// Transforms of the same size reuse a cached plan (bit-reversal
// permutation, per-stage twiddle tables, and for Bluestein the kernel's
// precomputed FFT), built once per size behind a mutex and shared by all
// goroutines; planned transforms are bit-identical to unplanned ones
// because the tables replicate the incremental twiddle recurrence exactly.
// FFTEachCtx transforms a batch of rows concurrently, and ParallelMapCtx
// generalizes that to any per-row kernel; both take the caller's ctx and
// stop claiming rows once it is done.
//
// # Real-input FFT conventions
//
// RFFT/RFFTTo exploit the conjugate symmetry of a real signal's spectrum —
// X[N−k] = conj(X[k]) — and return only the RFFTLen(N) = N/2+1
// non-negative-frequency bins. Power-of-two lengths pack even/odd samples
// into one half-length complex transform and unpack with a single twiddle
// pass (about half the work of the complex path, equal up to rounding);
// other lengths widen into pooled scratch and are bit-identical to the
// complex transform's half spectrum. WindowedRFFTTo (and, on the complex
// side, WindowedFFTTo) fuse the window multiply into the transform's first
// pass: same bits as window-then-transform, one fewer pass over the data.
// Real-input plans are cached per size alongside the complex plans, and all
// *To forms are allocation-free once their plan exists.
//
// # Window conventions
//
// Window.Coefficients(n) returns the full (periodic-symmetric) n-point
// window; Apply/ApplyFloat multiply element-wise into a fresh slice. The
// radar pipeline windows before the range FFT (Hann by default) to trade
// main-lobe width for sidelobe suppression; windows are not normalized, so
// absolute powers are comparable only under the same window.
//
// # Peak conventions
//
// FindPeaks/FindPeaks2D return strict local maxima above an absolute
// threshold, greedily pruned so surviving peaks are at least minDistance
// bins apart (strongest first). Indices are integer bins;
// QuadraticInterp refines a 1-D peak to sub-bin accuracy by fitting a
// parabola through the peak and its neighbors, returning a fractional bin
// offset in [−0.5, 0.5].
package dsp
