package radar

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rfprotect/internal/dsp"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
)

// rowSummaryOf is the definition the profile's row summary is held to: the
// fold m = 0; if v > m { m = v } over the row, and whether it holds a NaN.
func rowSummaryOf(row []float64) (float64, bool) {
	m, nan := 0.0, false
	for _, v := range row {
		if v > m {
			m = v
		}
		if math.IsNaN(v) {
			nan = true
		}
	}
	return m, nan
}

// checkRowSummary fails unless prof's row summary matches its Power row by
// row, bit for bit.
func checkRowSummary(t *testing.T, name string, prof *Profile) {
	t.Helper()
	if len(prof.rowMax) != prof.RangeBins || len(prof.rowNaN) != prof.RangeBins {
		t.Fatalf("%s: summary has %d/%d rows, want %d", name, len(prof.rowMax), len(prof.rowNaN), prof.RangeBins)
	}
	for r := 0; r < prof.RangeBins; r++ {
		m, nan := rowSummaryOf(prof.Power[r*prof.AngleBins : (r+1)*prof.AngleBins])
		if math.Float64bits(prof.rowMax[r]) != math.Float64bits(m) || prof.rowNaN[r] != nan {
			t.Fatalf("%s: row %d summary (%v, %v), want (%v, %v)", name, r, prof.rowMax[r], prof.rowNaN[r], m, nan)
		}
	}
}

// poisonedSpectra fills every antenna's range spectrum with random values
// and sprinkles in the non-finite ones an overflowing frame produces: NaN,
// ±Inf, and finite values whose squares overflow.
func poisonedSpectra(e *raExec, rng *rand.Rand) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e160, -1e160}
	for k := range e.spectra {
		for r := range e.spectra[k] {
			re, im := rng.NormFloat64(), rng.NormFloat64()
			if rng.Intn(40) == 0 {
				re = bad[rng.Intn(len(bad))]
			}
			if rng.Intn(40) == 0 {
				im = bad[rng.Intn(len(bad))]
			}
			e.spectra[k][r] = complex(re, im)
		}
	}
}

// TestRowSummaryAVXMatchesScalar holds the AVX sweep's row summary to the
// scalar kernel's, and both to the definition, on spectra with NaN, ±Inf
// and overflowing cells, for angle-bin counts with every tail length and
// antenna counts on both sides of the 4-lane width.
func TestRowSummaryAVXMatchesScalar(t *testing.T) {
	saved := useBeamAVX
	defer func() { useBeamAVX = saved }()
	rng := rand.New(rand.NewSource(11))
	for _, ants := range []int{1, 2, 7, 9} {
		for _, bins := range []int{4, 5, 6, 7, 8, 181} {
			p := quietParams()
			p.NumAntennas = ants
			cfg := DefaultConfig()
			cfg.AngleBins = bins
			cfg.Workers = 1
			pl := CompileFrontEndPlan(cfg, p)
			e := pl.newRAExec()
			poisonedSpectra(e, rng)
			sweep := func(avx bool) *Profile {
				useBeamAVX = avx
				prof := &Profile{
					RangeBins: pl.maxBin,
					AngleBins: bins,
					Power:     make([]float64, pl.maxBin*bins),
					rowMax:    make([]float64, pl.maxBin),
					rowNaN:    make([]bool, pl.maxBin),
				}
				e.prof = prof
				e.beamSweep(0, pl.maxBin)
				e.prof = nil
				return prof
			}
			scalar := sweep(false)
			checkRowSummary(t, "scalar", scalar)
			if !saved {
				continue
			}
			vector := sweep(true)
			checkRowSummary(t, "avx", vector)
			for i, want := range scalar.Power {
				if got := vector.Power[i]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("ants %d bins %d: cell %d = %v, scalar %v", ants, bins, i, got, want)
				}
			}
		}
	}
}

// TestRangeAngleRowSummary checks the summary RangeAngleInto leaves against
// the profile it wrote, for clean and overflowing frames, at one worker and
// several, into fresh and reused profiles.
func TestRangeAngleRowSummary(t *testing.T) {
	p := quietParams()
	clean := scratchFrame(p, 4, 0)
	hot := overflowingFrame(p)
	for _, workers := range []int{1, 3} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		pl := CompileFrontEndPlan(cfg, p)
		reused := &Profile{}
		for _, f := range []*fmcw.Frame{clean, hot, clean} {
			checkRowSummary(t, "fresh", rangeAngle(t, pl, f))
			if err := pl.RangeAngleInto(context.Background(), f, reused); err != nil {
				t.Fatal(err)
			}
			checkRowSummary(t, "reused", reused)
		}
	}
}

// TestDetectPrunedMatchesFullScan runs DetectInto on profiles with their row
// summary and on the same profiles without it, which DetectInto scans
// whole: the detections must be the same.
func TestDetectPrunedMatchesFullScan(t *testing.T) {
	p := quietParams()
	array := fmcw.Array{Position: geom.Point{}, Facing: 1}
	pl := PlanFrontEnd(DefaultConfig(), p)
	frames := []*fmcw.Frame{overflowingFrame(p)}
	for seed := int64(0); seed < 8; seed++ {
		frames = append(frames, scratchFrame(p, seed, 0))
	}
	for i, f := range frames {
		prof := rangeAngle(t, pl, f)
		full := *prof
		full.rowMax, full.rowNaN = nil, nil
		got := pl.DetectInto(nil, prof, array)
		want := pl.DetectInto(nil, &full, array)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: pruned detections %+v, full scan %+v", i, got, want)
		}
	}
}

// TestProfileCloneSharesNothing checks that a clone owns its power grid and
// row summary, and that DetectInto reads a clone as it reads the original.
func TestProfileCloneSharesNothing(t *testing.T) {
	p := quietParams()
	pl := PlanFrontEnd(DefaultConfig(), p)
	prof := rangeAngle(t, pl, scratchFrame(p, 2, 0))
	cp := prof.Clone()
	if !reflect.DeepEqual(cp, prof) {
		t.Fatal("clone differs from the original")
	}
	array := fmcw.Array{Position: geom.Point{}, Facing: 1}
	want := pl.DetectInto(nil, prof, array)
	cp.Power[0], cp.rowMax[0], cp.rowNaN[0] = 1, 1, true
	if prof.Power[0] == 1 || prof.rowMax[0] == 1 || prof.rowNaN[0] {
		t.Fatal("clone shares storage with the original")
	}
	if got := pl.DetectInto(nil, prof.Clone(), array); !reflect.DeepEqual(got, want) {
		t.Fatalf("detections on a clone %+v, want %+v", got, want)
	}
}

// TestColumnInterpMatchesQuadraticInterp holds the three-cell column
// refinement to dsp.QuadraticInterp over the whole copied column, boundary
// rows included, bit for bit.
func TestColumnInterpMatchesQuadraticInterp(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const rows, cols = 7, 5
	g := make([]float64, rows*cols)
	col := make([]float64, rows)
	for trial := 0; trial < 100; trial++ {
		for i := range g {
			g[i] = rng.Float64()
		}
		for c := 0; c < cols; c++ {
			for r := range col {
				col[r] = g[r*cols+c]
			}
			for r := 0; r < rows; r++ {
				got, want := columnInterp(g, rows, cols, r, c), dsp.QuadraticInterp(col, r)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("cell (%d, %d): %v, QuadraticInterp %v", r, c, got, want)
				}
			}
		}
	}
}
