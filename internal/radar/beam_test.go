package radar

import (
	"context"
	"math"
	"testing"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
)

// TestBeamSweepAVXBitIdenticalToScalar proves the vectorized sweep's
// bit-identity claim empirically: for a spread of antenna counts (hitting
// every unrolled scalar kernel, the generic fallback, and the single-antenna
// degenerate case) the AVX path must reproduce the scalar path's profile bit
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
