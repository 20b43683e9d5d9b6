package radar

import (
	"math"
	"testing"

	"rfprotect/internal/dsp"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
)

func TestProcessorConfigDefaults(t *testing.T) {
	pr := NewProcessor(Config{})
	cfg := pr.Config()
	def := DefaultConfig()
	if cfg.AngleBins != def.AngleBins {
		t.Fatalf("AngleBins %d", cfg.AngleBins)
	}
	if cfg.MinPeakPower != def.MinPeakPower || cfg.MinPeakRatio != def.MinPeakRatio {
		t.Fatal("peak thresholds not defaulted")
	}
	if cfg.MaxTargets != def.MaxTargets {
		t.Fatal("MaxTargets not defaulted")
	}
}

func TestMaxTargetsCapsDetections(t *testing.T) {
	p := quietParams()
	array := fmcw.Array{Position: geom.Point{}, Facing: 1}
	var returns []fmcw.Return
	for i := 0; i < 6; i++ {
		returns = append(returns, array.ReturnFrom(geom.Point{X: float64(i) - 3, Y: 2 + float64(i)}, 1, 0, 0))
	}
	fr := synthesize(p, returns, 0, nil)
	cfg := DefaultConfig()
	cfg.MaxTargets = 2
	cfg.MinPeakRatio = 0.01
	pr := NewProcessor(cfg)
	dets := pr.Detect(rangeAngle(t, pr, fr), array)
	if len(dets) > 2 {
		t.Fatalf("got %d detections, cap 2", len(dets))
	}
}

func TestMaxRangeExcludesFarTargets(t *testing.T) {
	p := quietParams()
	array := fmcw.Array{Position: geom.Point{}, Facing: 1}
	near := array.ReturnFrom(geom.Point{X: 0, Y: 3}, 1, 0, 0)
	far := array.ReturnFrom(geom.Point{X: 0, Y: 12}, 1, 0, 0)
	fr := synthesize(p, []fmcw.Return{near, far}, 0, nil)
	cfg := DefaultConfig()
	cfg.MaxRange = 8
	pr := NewProcessor(cfg)
	for _, d := range pr.Detect(rangeAngle(t, pr, fr), array) {
		if d.Range > 8.5 {
			t.Fatalf("detection beyond MaxRange: %v", d)
		}
	}
}

func TestMinRangeExcludesCloseTargets(t *testing.T) {
	p := quietParams()
	array := fmcw.Array{Position: geom.Point{}, Facing: 1}
	veryClose := array.ReturnFrom(geom.Point{X: 0, Y: 0.6}, 5, 0, 0)
	normal := array.ReturnFrom(geom.Point{X: 0, Y: 4}, 1, 0, 0)
	fr := synthesize(p, []fmcw.Return{veryClose, normal}, 0, nil)
	cfg := DefaultConfig()
	cfg.MinRange = 1.5
	pr := NewProcessor(cfg)
	dets := pr.Detect(rangeAngle(t, pr, fr), array)
	for _, d := range dets {
		if d.Range < 1.2 {
			t.Fatalf("detection below MinRange: %v", d)
		}
	}
	if len(dets) == 0 {
		t.Fatal("normal target lost")
	}
}

func TestPlanCacheReuse(t *testing.T) {
	p := quietParams()
	pr := NewProcessor(DefaultConfig())
	fr := synthesize(p, nil, 0, nil)
	rangeAngle(t, pr, fr)
	first := pr.plan
	if first == nil {
		t.Fatal("no plan compiled")
	}
	rangeAngle(t, pr, fr)
	if pr.plan != first {
		t.Fatal("plan recompiled for identical params")
	}
	if pr.Plan(p) != first {
		t.Fatal("Plan() recompiled for identical params")
	}
	// Changing params invalidates the cache.
	p2 := p
	p2.CenterFreq = 7e9
	fr2 := synthesize(p2, nil, 0, nil)
	rangeAngle(t, pr, fr2)
	if pr.plan == first {
		t.Fatal("plan not recompiled for new params")
	}
}

func TestBeamformingPeakAtTrueAngle(t *testing.T) {
	// Directly verify Eq. 2: P(θ) peaks at the synthesis angle.
	p := quietParams()
	array := fmcw.Array{Position: geom.Point{}, Facing: 1}
	for _, aoa := range []float64{0.5, 1.0, math.Pi / 2, 2.2} {
		ret := fmcw.Return{Delay: 2 * 4.0 / fmcw.C, Amplitude: 1, AoA: aoa}
		fr := synthesize(p, []fmcw.Return{ret}, 0, nil)
		pr := NewProcessor(DefaultConfig())
		prof := rangeAngle(t, pr, fr)
		dets := pr.Detect(prof, array)
		if len(dets) == 0 {
			t.Fatalf("aoa %v: no detection", aoa)
		}
		if math.Abs(geom.AngleDiff(dets[0].AoA, aoa)) > 0.06 {
			t.Fatalf("aoa %v: detected %v", aoa, dets[0].AoA)
		}
	}
}

func TestTrackSmoothedShortTrack(t *testing.T) {
	trk := &Track{Points: []TimedPoint{{Pos: geom.Point{X: 1, Y: 1}}}}
	s := trk.Smoothed()
	if len(s) != 1 || s[0] != (geom.Point{X: 1, Y: 1}) {
		t.Fatalf("short smoothing: %v", s)
	}
}

func TestEstimateRateShortSeries(t *testing.T) {
	if r := EstimateRate([]float64{1, 2}, 20); r != 0 {
		t.Fatalf("short series rate %v", r)
	}
}

func TestEmpiricalAngleResolutionClaim(t *testing.T) {
	// §5.2: a K-antenna array cannot separate paths within ~π/K. Two equal
	// reflections at the same range separated by half the angular resolution
	// must merge into one detection.
	p := quietParams()
	array := fmcw.Array{Position: geom.Point{}, Facing: 1}
	sep := p.AngularResolution() / 4
	r1 := fmcw.Return{Delay: 2 * 4.0 / fmcw.C, Amplitude: 1, AoA: math.Pi/2 - sep/2}
	r2 := fmcw.Return{Delay: 2 * 4.0 / fmcw.C, Amplitude: 1, AoA: math.Pi/2 + sep/2}
	fr := synthesize(p, []fmcw.Return{r1, r2}, 0, nil)
	pr := NewProcessor(DefaultConfig())
	dets := pr.Detect(rangeAngle(t, pr, fr), array)
	count := 0
	for _, d := range dets {
		if math.Abs(d.Range-4) < 0.5 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("sub-resolution pair produced %d detections, want 1 (merged)", count)
	}
}

func TestDetectEmptyProfile(t *testing.T) {
	pr := NewProcessor(DefaultConfig())
	prof := &Profile{AngleBins: 181}
	if dets := pr.Detect(prof, fmcw.Array{}); dets != nil {
		t.Fatal("empty profile should have no detections")
	}
}

func TestCDFOfTrackErrors(t *testing.T) {
	// Integration of dsp CDF with tracker output types (regression guard).
	errs := []float64{0.1, 0.2, 0.3}
	cdf := dsp.EmpiricalCDF(errs)
	if cdf[len(cdf)-1].P != 1 {
		t.Fatal("cdf tail")
	}
}
