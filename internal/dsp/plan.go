package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"

	"rfprotect/internal/parallel"
)

// fftPlan holds everything a radix-2 transform of one size needs: the
// bit-reversal permutation and per-stage twiddle-factor tables for both
// transform directions. Plans are immutable after construction and shared
// by every goroutine transforming that size.
//
// The twiddle tables are generated by the same incremental w *= wBase
// recurrence the un-planned kernel used, so a planned transform is
// bit-identical to an unplanned one — the cache changes cost, never values.
type fftPlan struct {
	n   int
	rev []int
	fwd [][]complex128 // fwd[s][k]: stage of size 2<<s, twiddle w^k
	inv [][]complex128
}

// bluesteinPlan caches the size-dependent pieces of Bluestein's algorithm:
// the quadratic chirp for each direction and the convolution kernel's
// length-m FFT (the kernel depends only on n and the direction). It also
// recycles the length-m convolution scratch each transform needs, so the
// steady state of a Bluestein-sized transform is allocation-free.
type bluesteinPlan struct {
	n, m       int
	wFwd, wInv []complex128 // chirp w[k] = exp(sign·iπk²/n)
	bFwd, bInv []complex128 // FFT of the zero-padded conjugate chirp

	scratch parallel.FreeList[[]complex128] // convolution buffers, each of length m
}

var (
	radix2Plans    parallel.Cache[int, *fftPlan]
	bluesteinPlans parallel.Cache[int, *bluesteinPlan]
)

// planFor returns the shared radix-2 plan for power-of-two size n, building
// it on first use.
func planFor(n int) *fftPlan {
	return radix2Plans.Get(n, newFFTPlan)
}

func newFFTPlan(n int) *fftPlan {
	p := &fftPlan{n: n, rev: make([]int, n)}
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := range p.rev {
		p.rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
	p.fwd = stageTwiddles(n, -1)
	p.inv = stageTwiddles(n, +1)
	return p
}

// stageTwiddles tabulates, for each butterfly stage, the twiddle sequence
// the incremental kernel would have computed: w starts at 1 and is
// repeatedly multiplied by exp(sign·i·2π/size).
func stageTwiddles(n int, sign float64) [][]complex128 {
	var stages [][]complex128
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		wBase := cmplx.Exp(complex(0, sign*2*math.Pi/float64(size)))
		tw := make([]complex128, half)
		w := complex(1, 0)
		for k := 0; k < half; k++ {
			tw[k] = w
			w *= wBase
		}
		stages = append(stages, tw)
	}
	return stages
}

// bluesteinPlanFor returns the shared Bluestein plan for length n.
func bluesteinPlanFor(n int) *bluesteinPlan {
	return bluesteinPlans.Get(n, newBluesteinPlan)
}

func newBluesteinPlan(n int) *bluesteinPlan {
	p := &bluesteinPlan{n: n, m: NextPowerOfTwo(2*n - 1)}
	p.wFwd, p.bFwd = bluesteinTables(n, p.m, -1)
	p.wInv, p.bInv = bluesteinTables(n, p.m, +1)
	return p
}

func bluesteinTables(n, m int, sign float64) (w, bfft []complex128) {
	w = make([]complex128, n)
	for k := 0; k < n; k++ {
		// k² mod 2n avoids precision loss for large k.
		kk := (int64(k) * int64(k)) % int64(2*n)
		w[k] = cmplx.Exp(complex(0, sign*math.Pi*float64(kk)/float64(n)))
	}
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		b[k] = cmplx.Conj(w[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(w[k])
	}
	radix2(b, false)
	return w, b
}
