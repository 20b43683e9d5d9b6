package radar

import (
	"context"
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/scene"
)

func quietParams() fmcw.Params {
	p := fmcw.DefaultParams()
	p.NoiseStd = 0.001
	return p
}

func TestRangeAngleSingleTarget(t *testing.T) {
	p := quietParams()
	array := fmcw.Array{Position: geom.Point{}, AxisAngle: 0, Facing: 1}
	target := geom.Point{X: 1.5, Y: 4}
	ret := array.ReturnFrom(target, 1, 0, 0)
	fr := synthesize(p, []fmcw.Return{ret}, 0, nil)
	pl := PlanFrontEnd(DefaultConfig(), p)
	dets := pl.DetectInto(nil, rangeAngle(t, pl, fr), array)
	if len(dets) == 0 {
		t.Fatal("no detections")
	}
	d := dets[0]
	if err := d.Pos.Dist(target); err > 0.25 {
		t.Fatalf("localization error %v m (det %v, target %v)", err, d.Pos, target)
	}
	if math.Abs(d.Range-array.DistanceOf(target)) > p.RangeResolution() {
		t.Fatalf("range error: got %v want %v", d.Range, array.DistanceOf(target))
	}
	if math.Abs(geom.AngleDiff(d.AoA, array.AoAOf(target))) > 0.05 {
		t.Fatalf("angle error: got %v want %v", d.AoA, array.AoAOf(target))
	}
}

func TestDetectSeparatesTwoTargets(t *testing.T) {
	p := quietParams()
	array := fmcw.Array{Position: geom.Point{}, AxisAngle: 0, Facing: 1}
	t1 := geom.Point{X: -2, Y: 3}
	t2 := geom.Point{X: 3, Y: 6}
	fr := synthesize(p, []fmcw.Return{
		array.ReturnFrom(t1, 1, 0, 0),
		array.ReturnFrom(t2, 0.8, 0, 0),
	}, 0, nil)
	pl := PlanFrontEnd(DefaultConfig(), p)
	dets := pl.DetectInto(nil, rangeAngle(t, pl, fr), array)
	if len(dets) < 2 {
		t.Fatalf("got %d detections, want 2", len(dets))
	}
	found1, found2 := false, false
	for _, d := range dets[:2] {
		if d.Pos.Dist(t1) < 0.4 {
			found1 = true
		}
		if d.Pos.Dist(t2) < 0.4 {
			found2 = true
		}
	}
	if !found1 || !found2 {
		t.Fatalf("targets not separated: %v", dets)
	}
}

func TestBackgroundSubtractionKillsStatic(t *testing.T) {
	p := quietParams()
	array := fmcw.Array{Position: geom.Point{}, AxisAngle: 0, Facing: 1}
	static := array.ReturnFrom(geom.Point{X: 0, Y: 2}, 2, 0, 0)
	mover1 := array.ReturnFrom(geom.Point{X: 1, Y: 5}, 0.5, 0, 0)
	mover2 := array.ReturnFrom(geom.Point{X: 1.2, Y: 5.2}, 0.5, 0, 0)
	f1 := synthesize(p, []fmcw.Return{static, mover1}, 0, nil)
	f2 := synthesize(p, []fmcw.Return{static, mover2}, 0.05, nil)
	pl := PlanFrontEnd(DefaultConfig(), p)
	dets := pl.DetectInto(nil, rangeAngle(t, pl, f2.Sub(f1)), array)
	for _, d := range dets {
		if d.Pos.Dist(geom.Point{X: 0, Y: 2}) < 0.5 {
			t.Fatalf("static reflector leaked through subtraction: %v", d)
		}
	}
	if len(dets) == 0 {
		t.Fatal("moving target lost")
	}
}

func TestKalmanConvergesOnStationaryTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	kf := NewKalman(geom.Point{X: 1, Y: 1}, 0.1, 0.05)
	truth := geom.Point{X: 2, Y: 3}
	for i := 0; i < 200; i++ {
		kf.Predict(0.05)
		kf.Update(truth.Add(geom.Point{X: rng.NormFloat64() * 0.1, Y: rng.NormFloat64() * 0.1}))
	}
	if d := kf.Position().Dist(truth); d > 0.1 {
		t.Fatalf("converged to %v, truth %v (err %v)", kf.Position(), truth, d)
	}
	if v := kf.Velocity().Norm(); v > 0.2 {
		t.Fatalf("stationary target has velocity %v", v)
	}
}

func TestKalmanTracksConstantVelocity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	kf := NewKalman(geom.Point{}, 1.0, 0.01)
	vel := geom.Point{X: 1, Y: 0.5}
	dt := 0.05
	var pos geom.Point
	for i := 0; i < 200; i++ {
		pos = pos.Add(vel.Scale(dt))
		kf.Predict(dt)
		kf.Update(pos.Add(geom.Point{X: rng.NormFloat64() * 0.05, Y: rng.NormFloat64() * 0.05}))
	}
	if d := kf.Velocity().Dist(vel); d > 0.15 {
		t.Fatalf("velocity estimate %v, truth %v", kf.Velocity(), vel)
	}
	if d := kf.Position().Dist(pos); d > 0.15 {
		t.Fatalf("position estimate %v, truth %v", kf.Position(), pos)
	}
}

func TestKalmanMahalanobisGating(t *testing.T) {
	kf := NewKalman(geom.Point{}, 0.1, 0.01)
	kf.Predict(0.05)
	near := kf.Update(geom.Point{X: 0.01, Y: 0})
	kf2 := NewKalman(geom.Point{}, 0.1, 0.01)
	kf2.Predict(0.05)
	far := kf2.Update(geom.Point{X: 5, Y: 5})
	if near >= far {
		t.Fatalf("Mahalanobis ordering wrong: near %v far %v", near, far)
	}
}

func makeDetections(traj geom.Trajectory, t0, dt float64) [][]Detection {
	out := make([][]Detection, len(traj))
	for i, p := range traj {
		out[i] = []Detection{{Pos: p, Time: t0 + float64(i)*dt, Power: 1}}
	}
	return out
}

func TestTrackerFollowsSingleTarget(t *testing.T) {
	traj := make(geom.Trajectory, 50)
	for i := range traj {
		traj[i] = geom.Point{X: float64(i) * 0.05, Y: 2}
	}
	tracks := TrackDetections(TrackerConfig{}, makeDetections(traj, 0, 0.05))
	if len(tracks) != 1 {
		t.Fatalf("got %d tracks, want 1", len(tracks))
	}
	got := tracks[0].Trajectory()
	if len(got) < 40 {
		t.Fatalf("track too short: %d", len(got))
	}
	if e := geom.MeanPointwiseError(got, traj); e > 0.1 {
		t.Fatalf("track error %v", e)
	}
}

func TestTrackerSeparatesTwoTargets(t *testing.T) {
	n := 60
	frames := make([][]Detection, n)
	for i := range frames {
		ti := float64(i) * 0.05
		frames[i] = []Detection{
			{Pos: geom.Point{X: float64(i) * 0.03, Y: 1}, Time: ti},
			{Pos: geom.Point{X: 5 - float64(i)*0.03, Y: 4}, Time: ti},
		}
	}
	tracks := TrackDetections(TrackerConfig{}, frames)
	if len(tracks) != 2 {
		t.Fatalf("got %d tracks, want 2", len(tracks))
	}
}

func TestTrackerDropsAfterMisses(t *testing.T) {
	var frames [][]Detection
	for i := 0; i < 20; i++ {
		frames = append(frames, []Detection{{Pos: geom.Point{X: 0.05 * float64(i), Y: 1}, Time: 0.05 * float64(i)}})
	}
	// 30 empty frames: target gone. Observe is only called with detections,
	// so emulate misses via far-away detections that cannot associate.
	for i := 20; i < 50; i++ {
		frames = append(frames, []Detection{{Pos: geom.Point{X: 100, Y: 100}, Time: 0.05 * float64(i)}})
	}
	tracks := TrackDetections(TrackerConfig{MinTrackPoints: 5}, frames)
	if len(tracks) < 1 {
		t.Fatal("original track lost entirely")
	}
	if got := len(tracks[0].Points); got > 25 {
		t.Fatalf("track kept growing after target vanished: %d points", got)
	}
}

func TestIsOscillatoryFanVsHuman(t *testing.T) {
	const fr = 20.0
	// Fan: 2 Hz orbit of radius 0.3.
	fan := &Track{Confirmed: true}
	for i := 0; i < 100; i++ {
		ti := float64(i) / fr
		a := 2 * math.Pi * 2 * ti
		fan.Points = append(fan.Points, TimedPoint{Time: ti, Pos: geom.Point{X: 2 + 0.3*math.Cos(a), Y: 2 + 0.3*math.Sin(a)}})
	}
	if !IsOscillatory(fan, fr) {
		t.Fatal("fan not flagged")
	}
	// Human: slow walk.
	human := &Track{Confirmed: true}
	for i := 0; i < 100; i++ {
		ti := float64(i) / fr
		human.Points = append(human.Points, TimedPoint{Time: ti, Pos: geom.Point{X: ti * 0.8, Y: 1 + 0.2*math.Sin(0.3*ti)}})
	}
	if IsOscillatory(human, fr) {
		t.Fatal("human flagged as oscillatory")
	}
	filtered := FilterHumanTracks([]*Track{fan, human}, fr)
	if len(filtered) != 1 || filtered[0] != human {
		t.Fatal("FilterHumanTracks wrong")
	}
}

func TestEndToEndSceneTracking(t *testing.T) {
	// A human walks a straight line in the office; the pipeline must recover
	// the trajectory within a couple of range bins.
	params := fmcw.DefaultParams()
	params.NoiseStd = 0.005
	sc := scene.NewScene(scene.OfficeRoom(), params)
	fs := params.FrameRate
	n := 80
	traj := make(geom.Trajectory, n)
	for i := range traj {
		f := float64(i) / float64(n-1)
		traj[i] = geom.Point{X: 3 + 4*f, Y: 2 + 2*f}
	}
	sc.Humans = []*scene.Human{scene.NewHuman(traj, fs)}
	rng := rand.New(rand.NewSource(42))
	frames := capture(t, sc, 0, n, rng)
	detSeq, err := PlanFrontEnd(DefaultConfig(), params).ProcessFrames(context.Background(), frames, sc.Radar)
	if err != nil {
		t.Fatal(err)
	}
	tracks := TrackDetections(TrackerConfig{}, detSeq)
	if len(tracks) == 0 {
		t.Fatal("no tracks recovered")
	}
	best := tracks[0]
	for _, trk := range tracks {
		if len(trk.Points) > len(best.Points) {
			best = trk
		}
	}
	got := best.Smoothed()
	if len(got) < n/2 {
		t.Fatalf("track covers only %d of %d frames", len(got), n)
	}
	if e := geom.MeanPointwiseError(got, traj); e > 0.4 {
		t.Fatalf("end-to-end tracking error %v m", e)
	}
}

func TestBreathingPhaseExtraction(t *testing.T) {
	params := fmcw.DefaultParams()
	params.NoiseStd = 0.002
	sc := scene.NewScene(scene.HomeRoom(), params)
	h := scene.NewHuman(geom.Trajectory{{X: 7, Y: 3}}, 1)
	h.Breathing = scene.Breathing{Rate: 0.25, Amplitude: 0.005}
	sc.Humans = []*scene.Human{h}
	rng := rand.New(rand.NewSource(9))
	nFrames := 400 // 20 s at 20 Hz
	frames := capture(t, sc, 0, nFrames, rng)
	dist := sc.Radar.DistanceOf(geom.Point{X: 7, Y: 3})
	ex := BreathingExtractor{}
	times, phase := ex.PhaseSeries(frames, dist)
	if len(times) != nFrames || len(phase) != nFrames {
		t.Fatal("series length")
	}
	rate := EstimateRate(phase, params.FrameRate)
	if math.Abs(rate-0.25) > 0.05 {
		t.Fatalf("breathing rate %v Hz, want 0.25", rate)
	}
	// Phase swing should match 4π·A/λ peak-to-peak x2 amplitude.
	want := 2 * 4 * math.Pi * 0.005 / params.Wavelength()
	lo, hi := phase[0], phase[0]
	for _, v := range phase {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if got := hi - lo; got < 0.5*want || got > 2*want {
		t.Fatalf("phase swing %v, want ~%v", got, want)
	}
}

// TestPhaseStreamUnwrapsLinearRamp feeds PhaseStream frames whose
// monitored antenna carries a pure tone on the monitored range bin with a
// carrier phase advancing 0.4 rad per frame. The windowed bin then holds
// e^{i·0.4t} times the window's (real, positive) sum, so its wrapped phase
// crosses ±π several times over the run; the unwrapped series must follow
// the ramp.
func TestPhaseStreamUnwrapsLinearRamp(t *testing.T) {
	p := smallParams()
	n := p.SamplesPerChirp()
	const bin, step, frames = 5, 0.4, 100
	dist := p.DistanceForBeat(float64(bin) * p.SampleRate / float64(n))
	ps := BreathingExtractor{Antenna: 1}.NewStream(p, dist)
	for i := 0; i < frames; i++ {
		f := fmcw.NewFrame(p, float64(i)/p.FrameRate)
		for j := range f.Data[1] {
			f.Data[1][j] = cmplx.Exp(complex(0, 2*math.Pi*bin*float64(j)/float64(n)+step*float64(i)))
		}
		ps.Step(f)
	}
	times, phase := ps.Series()
	if len(times) != frames || len(phase) != frames {
		t.Fatalf("series length %d/%d, want %d", len(times), len(phase), frames)
	}
	if phase[frames-1] < 4*2*math.Pi {
		t.Fatalf("ramp ends at %v rad: too few wraps to exercise the unwrap", phase[frames-1])
	}
	for i, v := range phase {
		if want := step * float64(i); math.Abs(v-want) > 1e-9 {
			t.Fatalf("frame %d: unwrapped phase %v, want %v", i, v, want)
		}
	}
}

func TestDetrend(t *testing.T) {
	x := make([]float64, 50)
	for i := range x {
		x[i] = 3 + 0.2*float64(i) + math.Sin(float64(i))
	}
	d := detrend(x)
	// Residual mean should be ~0 and the sin component preserved.
	if m := math.Abs(meanOf(d)); m > 1e-9 {
		t.Fatalf("detrended mean %v", m)
	}
	var amp float64
	for _, v := range d {
		amp = math.Max(amp, math.Abs(v))
	}
	if amp < 0.8 {
		t.Fatalf("oscillation flattened: amp %v", amp)
	}
}

func meanOf(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

func TestProfileBinConversions(t *testing.T) {
	p := quietParams()
	fr := synthesize(p, nil, 0, nil)
	prof := rangeAngle(t, PlanFrontEnd(DefaultConfig(), p), fr)
	if got := prof.AngleOfBin(0); got != 0 {
		t.Fatalf("AngleOfBin(0) = %v", got)
	}
	if got := prof.AngleOfBin(float64(prof.AngleBins - 1)); math.Abs(got-math.Pi) > 1e-12 {
		t.Fatalf("AngleOfBin(last) = %v", got)
	}
	// Range of bin k maps the bin's beat frequency back to meters.
	if got := prof.RangeOfBin(1); math.Abs(got-p.RangeResolution()*512/512) > 0.01 {
		// one bin = fs/N Hz = 2 kHz -> 15 cm
		t.Fatalf("RangeOfBin(1) = %v", got)
	}
}

// TestProcessFramesCanceled: a pre-canceled ctx stops the batch front end
// before any frame reaches range–angle and returns context.Canceled with no
// partial detections.
func TestProcessFramesCanceled(t *testing.T) {
	sc := scene.NewScene(scene.HomeRoom(), fmcw.DefaultParams())
	sc.Humans = []*scene.Human{scene.NewHuman(geom.Trajectory{{X: 3, Y: 2}, {X: 5, Y: 4}}, 1)}
	frames := capture(t, sc, 0, 4, rand.New(rand.NewSource(1)))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dets, err := PlanFrontEnd(DefaultConfig(), sc.Params).ProcessFrames(ctx, frames, sc.Radar)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ProcessFrames = %v, want context.Canceled", err)
	}
	if dets != nil {
		t.Fatalf("canceled ProcessFrames returned %d partial detection sets", len(dets))
	}
}
