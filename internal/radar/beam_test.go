package radar

import (
	"context"
	"math"
	"runtime"
	"testing"

	"rfprotect/internal/dsp"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
)

// TestBeamSweepAVXBitIdenticalToScalar proves the vectorized sweep's
// bit-identity claim empirically: for a spread of antenna counts (the
// paper's 7-element array, smaller and larger ones, and the single-antenna
// degenerate case) the AVX path must reproduce beamRowScalar's profile bit
// for bit, tail bins included (181 angle bins leave one scalar tail bin).
func TestBeamSweepAVXBitIdenticalToScalar(t *testing.T) {
	if !useBeamAVX {
		t.Skip("AVX unavailable on this machine")
	}
	defer func() { useBeamAVX = true }()
	array := fmcw.Array{Position: geom.Point{}, Facing: 1}
	for _, ants := range []int{1, 2, 3, 4, 7, 9} {
		p := quietParams()
		p.NumAntennas = ants
		returns := []fmcw.Return{
			array.ReturnFrom(geom.Point{X: 1.5, Y: 4}, 1, 0, 0),
			array.ReturnFrom(geom.Point{X: -2, Y: 6}, 0.7, 0, 0),
		}
		fr := synthesize(p, returns, 0, nil)
		cfg := DefaultConfig()
		cfg.Workers = 1
		pl := CompileFrontEndPlan(cfg, p)

		var scalar, vector Profile
		useBeamAVX = false
		if err := pl.RangeAngleInto(context.Background(), fr, &scalar); err != nil {
			t.Fatalf("ants %d: scalar: %v", ants, err)
		}
		useBeamAVX = true
		if err := pl.RangeAngleInto(context.Background(), fr, &vector); err != nil {
			t.Fatalf("ants %d: vector: %v", ants, err)
		}
		if len(vector.Power) != len(scalar.Power) {
			t.Fatalf("ants %d: power length %d vs %d", ants, len(vector.Power), len(scalar.Power))
		}
		for i, want := range scalar.Power {
			if got := vector.Power[i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("ants %d: bin %d differs: %x vs %x (%g vs %g)",
					ants, i, math.Float64bits(got), math.Float64bits(want), got, want)
			}
		}
	}
}

// TestRangeAngleScalarMatchesEq2 checks the scalar beamforming kernel
// against the Eq. 2 definition, power[r][a] = |Σ_k spec_k[r]·steering[a][k]|²,
// built from the plan's own windowed range FFT and steering matrix. It
// runs on every host: the AVX sweep is switched off, and 33 antennas lie
// above beamMaxAVXAnt, where even an AVX host takes the scalar path. On
// amd64, which never contracts to FMA, the split-plane kernel must match the
// complex arithmetic bit for bit; elsewhere the compiler may fuse
// multiply-adds, so bins agree within 1e-12 of the profile's peak.
func TestRangeAngleScalarMatchesEq2(t *testing.T) {
	saved := useBeamAVX
	defer func() { useBeamAVX = saved }()
	useBeamAVX = false
	exact := runtime.GOARCH == "amd64"
	array := fmcw.Array{Position: geom.Point{}, Facing: 1}
	for _, ants := range []int{1, 2, 3, 4, 7, 9, 33} {
		p := quietParams()
		p.NumAntennas = ants
		returns := []fmcw.Return{
			array.ReturnFrom(geom.Point{X: 1.5, Y: 4}, 1, 0, 0),
			array.ReturnFrom(geom.Point{X: -2, Y: 6}, 0.7, 0, 0),
		}
		fr := synthesize(p, returns, 0, nil)
		cfg := DefaultConfig()
		cfg.Workers = 1
		pl := CompileFrontEndPlan(cfg, p)
		prof := rangeAngle(t, pl, fr)

		spec := make([][]complex128, ants)
		for k := range spec {
			spec[k] = dsp.WindowedFFTTo(make([]complex128, pl.n), fr.Data[k], pl.win)
		}
		bins := cfg.AngleBins
		want := make([]float64, pl.maxBin*bins)
		peak := 0.0
		for r := pl.minBin; r < pl.maxBin; r++ {
			for a := 0; a < bins; a++ {
				var sum complex128
				for k := range spec {
					sum += spec[k][r] * pl.steering[a][k]
				}
				v := real(sum)*real(sum) + imag(sum)*imag(sum)
				want[r*bins+a] = v
				peak = math.Max(peak, v)
			}
		}
		if len(prof.Power) != len(want) {
			t.Fatalf("ants %d: power length %d, want %d", ants, len(prof.Power), len(want))
		}
		for i, w := range want {
			got := prof.Power[i]
			if exact && math.Float64bits(got) != math.Float64bits(w) ||
				!exact && math.Abs(got-w) > 1e-12*peak {
				t.Fatalf("ants %d: bin %d (range %d, angle %d) = %g, Eq. 2 gives %g",
					ants, i, i/bins, i%bins, got, w)
			}
		}
	}
}
