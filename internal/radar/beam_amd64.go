//go:build amd64

package radar

// useBeamAVX gates the 4-wide vectorized beamforming sweep. It is set once
// at init from CPUID (AVX plus OS ymm-state support) and read without
// synchronization afterwards; tests toggle it to compare the vector and
// scalar paths bit for bit.
var useBeamAVX = cpuHasAVX()

// cpuHasAVX reports whether the CPU executes AVX instructions and the OS
// preserves ymm state across context switches.
func cpuHasAVX() bool

// beamSweepAVX computes row[a] = |Σ_k s_k · w_k[a]|² for a in [0, n), four
// angle bins per iteration, where s holds the per-antenna spectra packed as
// (re, im) pairs and wre/wim point at the flat antenna-major steering planes
// (row k at element offset k*stride). n must be a multiple of four and the
// slices behind the pointers must cover n elements per steering row; the
// caller handles the tail bins in Go. It returns the summary of the n bins
// it wrote: rowMax is the fold m = 0; if v > m { m = v } (NaN never passes)
// and rowNaN reports whether any bin is NaN. Implemented in beam_amd64.s.
//
//go:noescape
func beamSweepAVX(row *float64, n, nAnt int, s, wre, wim *float64, stride int) (rowMax float64, rowNaN bool)
