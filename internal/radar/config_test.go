package radar

import (
	"context"
	"math"
	"reflect"
	"testing"

	"rfprotect/internal/dsp"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
)

// TestProcessorConfigDefaults: zero-valued tuning fields of a plan's config
// fall back to their DefaultConfig values. Window and MinRange keep their
// zero values, so this plan is not the DefaultConfig one.
func TestProcessorConfigDefaults(t *testing.T) {
	cfg := PlanFrontEnd(Config{}, quietParams()).cfg
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
	pl := PlanFrontEnd(cfg, p)
	dets := pl.DetectInto(nil, rangeAngle(t, pl, fr), array)
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
	pl := PlanFrontEnd(cfg, p)
	for _, d := range pl.DetectInto(nil, rangeAngle(t, pl, fr), array) {
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
	pl := PlanFrontEnd(cfg, p)
	dets := pl.DetectInto(nil, rangeAngle(t, pl, fr), array)
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
	first := PlanFrontEnd(DefaultConfig(), p)
	if PlanFrontEnd(DefaultConfig(), p) != first {
		t.Fatal("PlanFrontEnd recompiled for an identical shape")
	}
	// Zero-valued fields normalize to their defaults before the lookup.
	sparse := DefaultConfig()
	sparse.AngleBins, sparse.MaxTargets = 0, 0
	if PlanFrontEnd(sparse, p) != first {
		t.Fatal("PlanFrontEnd did not normalize zero-valued fields")
	}
	// A warm lookup allocates nothing, also where the call is inlined into
	// another package (fmcw.PlanSynth here).
	if n := testing.AllocsPerRun(100, func() { PlanFrontEnd(DefaultConfig(), p); fmcw.PlanSynth(p) }); n != 0 {
		t.Fatalf("warm plan lookups allocate %v per run, want 0", n)
	}
	// Changing params or the config selects a different plan.
	p2 := p
	p2.CenterFreq = 7e9
	if pl := PlanFrontEnd(DefaultConfig(), p2); pl == first || pl.params != p2 {
		t.Fatal("PlanFrontEnd reused a plan across params")
	}
	cfg := DefaultConfig()
	cfg.AngleBins = 91
	if pl := PlanFrontEnd(cfg, p); pl == first || pl.cfg.AngleBins != 91 {
		t.Fatal("PlanFrontEnd reused a plan across configs")
	}
}

func TestBeamformingPeakAtTrueAngle(t *testing.T) {
	// Directly verify Eq. 2: P(θ) peaks at the synthesis angle.
	p := quietParams()
	array := fmcw.Array{Position: geom.Point{}, Facing: 1}
	for _, aoa := range []float64{0.5, 1.0, math.Pi / 2, 2.2} {
		ret := fmcw.Return{Delay: 2 * 4.0 / fmcw.C, Amplitude: 1, AoA: aoa}
		fr := synthesize(p, []fmcw.Return{ret}, 0, nil)
		pl := PlanFrontEnd(DefaultConfig(), p)
		dets := pl.DetectInto(nil, rangeAngle(t, pl, fr), array)
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
	pl := PlanFrontEnd(DefaultConfig(), p)
	dets := pl.DetectInto(nil, rangeAngle(t, pl, fr), array)
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
	pl := PlanFrontEnd(DefaultConfig(), quietParams())
	prof := &Profile{AngleBins: 181}
	if dets := pl.DetectInto(nil, prof, fmcw.Array{}); dets != nil {
		t.Fatal("empty profile should have no detections")
	}
}

// TestOverflowingFrameYieldsOnlyFiniteOutput feeds the front end samples
// that are finite but large enough to overflow the range FFT and the
// beamforming sum, leaving Inf and NaN in the profile and the Doppler map.
// DetectInto must skip every peak whose power, range or angle is not
// finite, and PeakVelocityAtRange must report no velocity rather than a
// NaN one. Nothing of the poisoned frame may survive it: the next clean
// frame, through the same plan and into the same profile and detection
// slice, must detect exactly what a fresh plan detects.
func TestOverflowingFrameYieldsOnlyFiniteOutput(t *testing.T) {
	p := quietParams()
	hot := overflowingFrame(p)
	pl := PlanFrontEnd(DefaultConfig(), p)
	prof := rangeAngle(t, pl, hot)
	overflowed := false
	for _, v := range prof.Power {
		overflowed = overflowed || !finite(v)
	}
	if !overflowed {
		t.Fatal("the profile stayed finite; the test proves nothing")
	}
	array := fmcw.Array{Position: geom.Point{}, Facing: 1}
	dets := pl.DetectInto(nil, prof, array)
	for _, d := range dets {
		if !finite(d.Power) || !finite(d.Range) || !finite(d.AoA) || !finite(d.Pos.X) || !finite(d.Pos.Y) {
			t.Fatalf("non-finite detection %+v", d)
		}
	}

	clean := scratchFrame(p, 9, 0.05)
	if err := pl.RangeAngleInto(context.Background(), clean, prof); err != nil {
		t.Fatal(err)
	}
	dets = pl.DetectInto(dets, prof, array)
	fresh := CompileFrontEndPlan(DefaultConfig(), p)
	want := fresh.DetectInto(nil, rangeAngle(t, fresh, clean), array)
	if len(want) == 0 {
		t.Fatal("the clean frame detects nothing; the test proves nothing")
	}
	if !reflect.DeepEqual(dets, want) {
		t.Fatalf("clean frame after a poisoned one detects %+v, a fresh plan %+v", dets, want)
	}

	chirps := make([]*fmcw.Frame, 8)
	for k := range chirps {
		chirps[k] = hot
	}
	m := rangeDoppler(t, pl, chirps, 0, 1/p.FrameRate)
	for r := 0; r < m.RangeBins; r++ {
		if v, pw, ok := m.PeakVelocityAtRange(m.RangeOfBin(float64(r)), 1); ok && (!finite(v) || !finite(pw)) {
			t.Fatalf("range bin %d: velocity %v, power %v reported ok", r, v, pw)
		}
	}
}

// overflowingFrame returns a frame of finite samples large enough to
// overflow the range FFT and the beamforming sum.
func overflowingFrame(p fmcw.Params) *fmcw.Frame {
	hot := fmcw.NewFrame(p, 0)
	for _, row := range hot.Data {
		for j := range row {
			row[j] = complex(1e160*float64(j%3), 0)
		}
	}
	return hot
}

func TestCDFOfTrackErrors(t *testing.T) {
	// Integration of dsp CDF with tracker output types (regression guard).
	errs := []float64{0.1, 0.2, 0.3}
	cdf := dsp.EmpiricalCDF(errs)
	if cdf[len(cdf)-1].P != 1 {
		t.Fatal("cdf tail")
	}
}
