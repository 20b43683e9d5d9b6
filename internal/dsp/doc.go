// Package dsp provides the signal-processing substrate used throughout the
// RF-Protect reproduction: FFTs, window functions, peak detection,
// smoothing, spectral frequency estimation, basic statistics, and the small
// dense-linear-algebra kernels (symmetric eigendecomposition, SPD matrix
// square root) needed by the FID metric.
//
// Everything operates on float64 / complex128 slices and is allocation-
// conscious: hot paths accept destination buffers where it matters.
//
// # FFT conventions
//
// FFTInPlace computes the unnormalized forward DFT with the engineering
// sign convention, X[k] = Σ x[n]·exp(−j2πkn/N); IFFTInPlace applies the
// opposite sign and the full 1/N normalization, so the round trip returns
// x up to rounding. Power-of-two lengths run an iterative radix-2
// Cooley–Tukey; every other length goes through Bluestein's chirp-z
// convolution, so any length is supported. WindowedFFTTo — the radar front
// end's range transform over complex IQ rows — fuses the window multiply
// into the transform's first pass: for power-of-two lengths the windowed
// samples are gathered straight into bit-reversed order, the same bits as
// window-then-transform with one fewer pass over the data. It is the one
// windowed transform: DominantFrequency, the breathing-rate and oscillation
// estimator, widens its real series into complex, runs WindowedFFTTo and
// keeps the first N/2 bins of the conjugate-symmetric spectrum.
//
// Transforms of the same size reuse a cached plan (bit-reversal
// permutation, per-stage twiddle tables, and for Bluestein the kernel's
// precomputed FFT), built once per size and shared by all goroutines;
// planned transforms are bit-identical to unplanned ones because the
// tables replicate the incremental twiddle recurrence exactly. Once a
// size's plan exists, every transform is allocation-free.
//
// # Window conventions
//
// Window.Coefficients(n) returns the full (periodic-symmetric) n-point
// window. The radar pipeline windows before the range FFT (Hann by
// default) to trade main-lobe width for sidelobe suppression; windows are
// not normalized, so absolute powers are comparable only under the same
// window.
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
