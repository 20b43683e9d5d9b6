package fmcw

import (
	"math/rand"
	"testing"
)

// benchReturns builds a deterministic mixed workload: direct paths,
// frequency-shifted reflector tones, and multipath-like weak returns.
func benchReturns(n int) []Return {
	rng := rand.New(rand.NewSource(99))
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
	return out
}

// TestSynthesizeWorkersBitIdentical is the reproducibility contract of the
// parallel pipeline: for a fixed seed, synthesis must produce bit-identical
// frames for every worker count, including the sequential workers=1 path —
// noise comes from per-antenna split streams, never from
// worker-schedule-dependent draws.
func TestSynthesizeWorkersBitIdentical(t *testing.T) {
	cases := []struct {
		name    string
		noise   float64
		returns int
		seed    int64
	}{
		{"noiseless-few-returns", 0, 3, 1},
		{"noisy-few-returns", 0.02, 3, 1},
		{"noisy-many-returns", 0.05, 40, 7},
		{"noise-only", 0.5, 0, 11},
	}
	workerCounts := []int{2, 3, 4, 8, 100}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			p.NoiseStd = tc.noise
			returns := benchReturns(tc.returns)
			ref := synthFrame(p, returns, 0.25, rand.New(rand.NewSource(tc.seed)), 1)
			for _, w := range workerCounts {
				got := synthFrame(p, returns, 0.25, rand.New(rand.NewSource(tc.seed)), w)
				for k := range ref.Data {
					for i := range ref.Data[k] {
						if got.Data[k][i] != ref.Data[k][i] {
							t.Fatalf("workers=%d: antenna %d sample %d differs: %v vs %v",
								w, k, i, got.Data[k][i], ref.Data[k][i])
						}
					}
				}
			}
		})
	}
}

// TestSynthesizeMatchesDefaultEntryPoint pins the default width
// (workers <= 0: one per available CPU) to the sequential path.
func TestSynthesizeMatchesDefaultEntryPoint(t *testing.T) {
	p := DefaultParams()
	returns := benchReturns(10)
	a := synthFrame(p, returns, 0.1, rand.New(rand.NewSource(3)), 0)
	b := synthFrame(p, returns, 0.1, rand.New(rand.NewSource(3)), 1)
	for k := range a.Data {
		for i := range a.Data[k] {
			if a.Data[k][i] != b.Data[k][i] {
				t.Fatalf("workers=0 diverges from workers=1 at [%d][%d]", k, i)
			}
		}
	}
}

// TestSynthesizeConsumesOneDrawForNoise documents the seed-splitting
// contract: a noisy synthesis consumes exactly one value from the caller's
// rng (the base seed), so surrounding code that shares the rng sees the
// same stream position regardless of frame geometry.
func TestSynthesizeConsumesOneDrawForNoise(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(5))
	ref := rand.New(rand.NewSource(5))
	ref.Int63()
	want := ref.Int63()
	synthFrame(p, benchReturns(4), 0, rng, 0)
	if got := rng.Int63(); got != want {
		t.Fatalf("rng advanced unexpectedly: got %d, want %d", got, want)
	}
	// A noiseless synthesis must not touch the rng at all.
	p.NoiseStd = 0
	rng2 := rand.New(rand.NewSource(5))
	synthFrame(p, benchReturns(4), 0, rng2, 0)
	if got := rng2.Int63(); got != func() int64 { r := rand.New(rand.NewSource(5)); return r.Int63() }() {
		t.Fatalf("noiseless synthesis consumed rng draws: %d", got)
	}
}

func BenchmarkSynthesizeSequential(b *testing.B) {
	p := DefaultParams()
	returns := benchReturns(64)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		synthFrame(p, returns, 0, rng, 1)
	}
}

func BenchmarkSynthesizeParallel(b *testing.B) {
	p := DefaultParams()
	returns := benchReturns(64)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		synthFrame(p, returns, 0, rng, 0)
	}
}
