package fmcw

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"rfprotect/internal/parallel"
)

// noiseTestSeeds returns the seeds the noise source is held to math/rand
// on: the edges of Seed's reduction modulo 2³¹−1 (zero and its substitute
// 89482311, ±1, the modulus and its neighbours, the int64 extremes), then
// random seeds up to n in all.
func noiseTestSeeds(n int) []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2,
		1<<31 - 2, 1<<31 - 1, 1 << 31, -(1<<31 - 1), -(1 << 31),
		2 * (1<<31 - 1), 1 << 62, math.MinInt64, math.MaxInt64,
		math.MinInt64 + 1, 89482311, -89482311,
	}
	r := rand.New(rand.NewSource(20261018))
	for len(seeds) < n {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// TestNoiseSourceMatchesMathRand holds noiseSource to rand.NewSource bit
// for bit: the raw Uint64 stream over two full turns of the 607-word
// register, then 20,000 NormFloat64 draws through rand.New — enough that the
// ziggurat's rare tail and wedge branches run for every seed. One source is
// reseeded for every seed, as the synthesis kernels do.
func TestNoiseSourceMatchesMathRand(t *testing.T) {
	draws := 20000
	if testing.Short() {
		draws = 2000
	}
	src := new(noiseSource)
	got := rand.New(src)
	for _, seed := range noiseTestSeeds(2048) {
		ref := rand.NewSource(seed).(rand.Source64)
		src.Seed(seed)
		for i := 0; i < 2*noiseLen; i++ {
			if g, w := src.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 draw %d = %#x, want %#x", seed, i, g, w)
			}
		}
		want := rand.New(rand.NewSource(seed))
		got.Seed(seed)
		for i := 0; i < draws; i++ {
			g, w := got.NormFloat64(), want.NormFloat64()
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d: NormFloat64 draw %d = %v, want %v", seed, i, g, w)
			}
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: Int63 after the normals = %d, want %d", seed, g, w)
		}
	}
}

// TestMulMod31 checks the Mersenne reduction against big-modulus arithmetic
// at the edges of its input range.
func TestMulMod31(t *testing.T) {
	vals := []uint64{0, 1, 2, lehmerMul, 1<<30 - 1, 1 << 30, lehmerMod - 2, lehmerMod - 1, lehmerMod}
	for _, a := range vals {
		for _, b := range vals {
			want := (a * b) % lehmerMod
			if got := mulMod31(a, b); got != want {
				t.Fatalf("mulMod31(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// TestNoisySynthesisMatchesStdlibStreams pins what a noisy frame is, in
// stdlib terms: the noiseless frame plus, on antenna k, the normals of
// rand.New(rand.NewSource(parallel.SplitSeed(base, k))), where base is the
// caller rng's next Int63. Both the planned and the legacy kernel are held
// to it byte for byte.
func TestNoisySynthesisMatchesStdlibStreams(t *testing.T) {
	p := DefaultParams()
	returns := planTestReturns(6, 3)
	ctx := context.Background()
	for _, seed := range []int64{0, 7, -12345, math.MaxInt64} {
		want := NewFrame(p, 0.25)
		if err := PlanSynth(p).SynthesizeInto(ctx, want, returns, nil, 1); err != nil {
			t.Fatal(err)
		}
		base := rand.New(rand.NewSource(seed)).Int63()
		for k := range want.Data {
			want.addNoiseRow(k, rand.New(rand.NewSource(parallel.SplitSeed(base, k))))
		}
		for _, workers := range []int{1, 3} {
			got := NewFrame(p, 0.25)
			if err := PlanSynth(p).SynthesizeInto(ctx, got, returns, rand.New(rand.NewSource(seed)), workers); err != nil {
				t.Fatal(err)
			}
			framesEqualBits(t, "planned", got, want)
		}

		legacyClean := NewFrame(p, 0.25)
		if err := SynthesizeLegacyInto(ctx, legacyClean, returns, nil, 1); err != nil {
			t.Fatal(err)
		}
		for k := range legacyClean.Data {
			legacyClean.addNoiseRow(k, rand.New(rand.NewSource(parallel.SplitSeed(base, k))))
		}
		legacy := NewFrame(p, 0.25)
		if err := SynthesizeLegacyInto(ctx, legacy, returns, rand.New(rand.NewSource(seed)), 2); err != nil {
			t.Fatal(err)
		}
		framesEqualBits(t, "legacy", legacy, legacyClean)
	}
}

// BenchmarkNoiseSeed compares one reseed of the noise source with the
// stdlib source's.
func BenchmarkNoiseSeed(b *testing.B) {
	b.Run("noiseSource", func(b *testing.B) {
		s := new(noiseSource)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		s := rand.NewSource(0)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
	})
}
