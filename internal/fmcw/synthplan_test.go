package fmcw

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// planTestParams returns the default shape scaled to n samples per chirp,
// so table-build and MAC tails (n % 4, n < 8, n < 4) all get exercised.
func planTestParams(n int) Params {
	p := DefaultParams()
	p.SampleRate = float64(n) / p.ChirpDuration
	return p
}

func planTestReturns(n int, seed int64) []Return {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Return, n)
	for i := range out {
		out[i] = Return{
			Delay:     2 * (1 + 10*rng.Float64()) / C,
			Amplitude: 0.05 + rng.Float64(),
			AoA:       rng.Float64() * 3.1,
			FreqShift: float64(i%3) * 20e3,
			Phase:     rng.Float64(),
		}
	}
	// The legacy kernel skips zero amplitudes; the plan must compact them
	// out without disturbing the accumulation order.
	if n > 2 {
		out[n/2].Amplitude = 0
	}
	return out
}

func framesEqualBits(t *testing.T, name string, a, b *Frame) {
	t.Helper()
	for k := range a.Data {
		for i := range a.Data[k] {
			av, bv := a.Data[k][i], b.Data[k][i]
			if math.Float64bits(real(av)) != math.Float64bits(real(bv)) ||
				math.Float64bits(imag(av)) != math.Float64bits(imag(bv)) {
				t.Fatalf("%s: antenna %d sample %d differs: %v vs %v", name, k, i, av, bv)
			}
		}
	}
}

// TestSynthPlanAVXBitIdenticalToScalar proves the vectorized synthesis
// kernels' bit-identity claim empirically: for sample counts hitting the
// full vector path, the strided tail, the MAC-only vector path, and the
// all-scalar degenerate cases, the AVX path must reproduce the scalar
// fallback bit for bit — table build and scaled MAC both.
func TestSynthPlanAVXBitIdenticalToScalar(t *testing.T) {
	if !useSynthAVX {
		t.Skip("AVX unavailable on this machine")
	}
	defer func() { useSynthAVX = true }()
	for _, n := range []int{512, 510, 37, 8, 6, 3, 1} {
		p := planTestParams(n)
		returns := planTestReturns(9, 7)
		pl := CompileSynthPlan(p)

		scalar, vector := NewFrame(p, 0.35), NewFrame(p, 0.35)
		useSynthAVX = false
		if err := pl.SynthesizeInto(context.Background(), scalar, returns, rand.New(rand.NewSource(3)), 1); err != nil {
			t.Fatalf("n %d: scalar: %v", n, err)
		}
		useSynthAVX = true
		if err := pl.SynthesizeInto(context.Background(), vector, returns, rand.New(rand.NewSource(3)), 1); err != nil {
			t.Fatalf("n %d: vector: %v", n, err)
		}
		framesEqualBits(t, "avx-vs-scalar", scalar, vector)
	}
}

// TestSynthPlannedWorkerBitIdentity is the worker-count contract on the
// planned path: the two-phase fan-out (tables, then antennas) must produce
// identical bits for sequential, two-worker, and one-per-CPU synthesis,
// noise included. make race runs this under the race detector.
func TestSynthPlannedWorkerBitIdentity(t *testing.T) {
	p := DefaultParams()
	returns := planTestReturns(24, 11)
	pl := PlanSynth(p)
	var ref *Frame
	for _, workers := range []int{1, 2, 0} {
		f := NewFrame(p, 0.6)
		if err := pl.SynthesizeInto(context.Background(), f, returns, rand.New(rand.NewSource(5)), workers); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if ref == nil {
			ref = f
			continue
		}
		framesEqualBits(t, "workers", ref, f)
	}
}

// TestSynthPlannedMatchesLegacyULP pins the planned kernel to the retained
// legacy kernel: the restructured arithmetic (strided table recurrence,
// precompiled steering scale) may shift samples at the ULP level but no
// further. The tolerance is generous against the accumulated magnitude —
// the observed differences are ~1e-12 relative.
func TestSynthPlannedMatchesLegacyULP(t *testing.T) {
	for _, n := range []int{512, 37} {
		p := planTestParams(n)
		returns := planTestReturns(16, 9)
		planned, legacy := NewFrame(p, 0.8), NewFrame(p, 0.8)
		if err := PlanSynth(p).SynthesizeInto(context.Background(), planned, returns, rand.New(rand.NewSource(2)), 1); err != nil {
			t.Fatal(err)
		}
		if err := SynthesizeLegacyInto(context.Background(), legacy, returns, rand.New(rand.NewSource(2)), 1); err != nil {
			t.Fatal(err)
		}
		scale := 0.0
		for k := range legacy.Data {
			for _, v := range legacy.Data[k] {
				if a := math.Abs(real(v)) + math.Abs(imag(v)); a > scale {
					scale = a
				}
			}
		}
		tol := 1e-9 * math.Max(scale, 1)
		for k := range legacy.Data {
			for i := range legacy.Data[k] {
				d := planned.Data[k][i] - legacy.Data[k][i]
				if math.Abs(real(d)) > tol || math.Abs(imag(d)) > tol {
					t.Fatalf("n %d: antenna %d sample %d: planned %v vs legacy %v (tol %g)",
						n, k, i, planned.Data[k][i], legacy.Data[k][i], tol)
				}
			}
		}
	}
}

// TestSynthPlannedZeroSampleFrame: a degenerate configuration with zero
// samples per chirp must synthesize (both kernels) without touching memory
// or panicking — the noise draw contract still holds.
func TestSynthPlannedZeroSampleFrame(t *testing.T) {
	p := DefaultParams()
	p.ChirpDuration = 1e-12 // rounds to 0 samples
	if n := p.SamplesPerChirp(); n != 0 {
		t.Fatalf("expected 0 samples, got %d", n)
	}
	returns := planTestReturns(4, 1)
	for _, synth := range []func(dst *Frame, rng *rand.Rand) error{
		func(dst *Frame, rng *rand.Rand) error {
			return PlanSynth(dst.Params).SynthesizeInto(context.Background(), dst, returns, rng, 1)
		},
		func(dst *Frame, rng *rand.Rand) error {
			return SynthesizeLegacyInto(context.Background(), dst, returns, rng, 1)
		},
	} {
		rng := rand.New(rand.NewSource(4))
		f := NewFrame(p, 0)
		if err := synth(f, rng); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSynthPlanSharedAcrossCallers: PlanSynth returns one plan per shape,
// and a plan compiled directly produces the same bits as the shared one.
func TestSynthPlanSharedAcrossCallers(t *testing.T) {
	p := DefaultParams()
	if PlanSynth(p) != PlanSynth(p) {
		t.Fatal("PlanSynth returned distinct plans for one shape")
	}
	returns := planTestReturns(8, 3)
	a, b := NewFrame(p, 0.1), NewFrame(p, 0.1)
	if err := PlanSynth(p).SynthesizeInto(context.Background(), a, returns, nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := CompileSynthPlan(p).SynthesizeInto(context.Background(), b, returns, nil, 1); err != nil {
		t.Fatal(err)
	}
	framesEqualBits(t, "shared-vs-private-plan", a, b)
}

// TestSynthPlannedAllocFree: after one warm-up call the planned pooled
// synthesis path allocates exactly nothing per frame.
func TestSynthPlannedAllocFree(t *testing.T) {
	p := DefaultParams()
	returns := planTestReturns(24, 13)
	pl := PlanSynth(p)
	pool := NewFramePool(p)
	rng := rand.New(rand.NewSource(6))
	run := func() {
		f := pool.Get(0)
		if err := pl.SynthesizeInto(context.Background(), f, returns, rng, 1); err != nil {
			t.Fatal(err)
		}
		pool.Put(f)
	}
	run() // warm the executor free list and table scratch
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("planned synthesis allocated %.1f per frame, want 0", allocs)
	}
}

// FuzzSynthReturnExtremes drives Return field extremes — NaN and ±Inf
// delays, amplitudes, frequency shifts, angles — through both the legacy
// and the planned kernel. Neither may panic, and the planned output must
// stay bit-identical across worker counts even when every sample is NaN.
func FuzzSynthReturnExtremes(f *testing.F) {
	inf := math.Inf(1)
	nan := math.NaN()
	f.Add(1e-8, 1.0, 1.5, 0.0, 0.0, 31)
	f.Add(nan, 1.0, 1.5, 0.0, 0.0, 16)
	f.Add(1e-8, nan, 1.5, 20e3, 0.1, 8)
	f.Add(1e-8, inf, nan, 0.0, 0.0, 5)
	f.Add(-inf, -1.0, 1.5, inf, nan, 4)
	f.Add(1e-8, 0.0, 1.5, -inf, 0.2, 0)
	f.Fuzz(func(t *testing.T, delay, amp, aoa, shift, phase float64, n int) {
		if n < 0 || n > 64 {
			n = 64
		}
		p := planTestParams(n)
		returns := []Return{
			{Delay: delay, Amplitude: amp, AoA: aoa, FreqShift: shift, Phase: phase},
			{Delay: 1e-8, Amplitude: 0.7, AoA: 1.1},
		}
		legacy := NewFrame(p, 0.2)
		if err := SynthesizeLegacyInto(context.Background(), legacy, returns, rand.New(rand.NewSource(1)), 1); err != nil {
			t.Fatal(err)
		}
		var ref *Frame
		for _, workers := range []int{1, 2} {
			fr := NewFrame(p, 0.2)
			if err := PlanSynth(p).SynthesizeInto(context.Background(), fr, returns, rand.New(rand.NewSource(1)), workers); err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = fr
				continue
			}
			framesEqualBits(t, "fuzz-workers", ref, fr)
		}
	})
}
