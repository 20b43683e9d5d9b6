package pipeline

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"rfprotect/internal/core"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/radar"
	"rfprotect/internal/scene"
)

// testSession builds the standard deployment with one walking human and one
// programmed ghost, so the equivalence test exercises humans, multipath,
// speckle, reflector switching, and noise at once.
func testSession(t *testing.T) *core.Session {
	t.Helper()
	s, err := core.NewSession(core.SessionConfig{Room: scene.HomeRoom()})
	if err != nil {
		t.Fatal(err)
	}
	cx := s.Scene.Radar.Position.X
	n := 40
	human := make(geom.Trajectory, n)
	ghost := make(geom.Trajectory, n)
	for i := range human {
		f := float64(i) / float64(n-1)
		human[i] = geom.Point{X: cx - 3 + 2*f, Y: 4.5 - f}
		ghost[i] = geom.Point{X: cx + 0.3 + f, Y: 2.7 + 1.5*f}
	}
	s.Scene.Humans = []*scene.Human{scene.NewHuman(human, s.Scene.Params.FrameRate)}
	if _, err := s.Ctl.ProgramForRadar(ghost, s.Scene.Radar, s.Scene.Params.FrameRate, 0); err != nil {
		t.Fatal(err)
	}
	return s
}

// capture drains n frames of sc from t0, the tests' shorthand for an
// uncancelable batch capture.
func capture(t testing.TB, sc *scene.Scene, t0 float64, n int, rng *rand.Rand) []*fmcw.Frame {
	t.Helper()
	frames, err := sc.CaptureCtx(context.Background(), t0, n, rng)
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

// processFrames runs the batch reference front end of the default config
// over frames, uncancelable.
func processFrames(t testing.TB, frames []*fmcw.Frame, array fmcw.Array) [][]radar.Detection {
	t.Helper()
	dets, err := radar.PlanFrontEnd(radar.DefaultConfig(), frames[0].Params).ProcessFrames(context.Background(), frames, array)
	if err != nil {
		t.Fatal(err)
	}
	return dets
}

// rangeAngle is the default config's range–angle profile of f into a fresh
// Profile, uncancelable.
func rangeAngle(t testing.TB, f *fmcw.Frame) *radar.Profile {
	t.Helper()
	prof := &radar.Profile{}
	if err := radar.PlanFrontEnd(radar.DefaultConfig(), f.Params).RangeAngleInto(context.Background(), f, prof); err != nil {
		t.Fatal(err)
	}
	return prof
}

// synthesize is a fresh frame captured at at, synthesized through the
// shared plan for p.
func synthesize(p fmcw.Params, rets []fmcw.Return, at float64, rng *rand.Rand) *fmcw.Frame {
	f := fmcw.NewFrame(p, at)
	if err := fmcw.PlanSynth(p).SynthesizeInto(context.Background(), f, rets, rng, 0); err != nil {
		panic(err)
	}
	return f
}

// frontEnd is the standard front-end chain over a fresh plan and pools for
// the scene's frame shape.
func frontEnd(sc *scene.Scene) []Stage {
	plan := radar.CompileFrontEndPlan(radar.DefaultConfig(), sc.Params)
	return FrontEndStagesPlanned(plan, sc.Radar, NewPools(sc.Params))
}

// TestStreamingEquivalentToBatch is the golden contract of the streaming
// pipeline: for the same scene and seed, streaming frame by frame produces
// bit-identical frames, range–angle profiles, detections, tracks, and
// breathing-phase series to the batch path.
func TestStreamingEquivalentToBatch(t *testing.T) {
	const nFrames = 30
	const seed = 9
	s := testSession(t)
	breathDist := s.Scene.Radar.DistanceOf(s.Tag.Config().AntennaPosition(1))

	// --- Batch path: capture everything, then process.
	batchFrames := capture(t, s.Scene, 0, nFrames, rand.New(rand.NewSource(seed)))
	batchDets := processFrames(t, batchFrames, s.Scene.Radar)
	batchTracks := radar.TrackDetections(radar.TrackerConfig{}, batchDets)
	var batchProfiles []*radar.Profile
	for i := 1; i < len(batchFrames); i++ {
		batchProfiles = append(batchProfiles, rangeAngle(t, batchFrames[i].Sub(batchFrames[i-1])))
	}
	batchTimes, batchPhase := radar.BreathingExtractor{}.PhaseSeries(batchFrames, breathDist)

	// --- Streaming path: one frame in flight through the full stage chain.
	framesC := NewCollectFrames()
	profsC := NewCollectProfiles()
	detsC := NewCollectDetections()
	trk := NewTrack(radar.TrackerConfig{})
	breath := NewBreathingPhase(radar.BreathingExtractor{}, breathDist)
	stages := append([]Stage{framesC}, frontEnd(s.Scene)...)
	stages = append(stages, profsC, detsC, trk, breath)
	p := New(s.Scene.Stream(0, nFrames, rand.New(rand.NewSource(seed))), stages...)
	n, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != nFrames {
		t.Fatalf("streamed %d frames, want %d", n, nFrames)
	}

	// Frames: bit-identical synthesis.
	streamFrames := framesC.Frames()
	if len(streamFrames) != len(batchFrames) {
		t.Fatalf("frame count %d != %d", len(streamFrames), len(batchFrames))
	}
	for i := range batchFrames {
		if streamFrames[i].Time != batchFrames[i].Time {
			t.Fatalf("frame %d time %v != %v", i, streamFrames[i].Time, batchFrames[i].Time)
		}
		if !reflect.DeepEqual(streamFrames[i].Data, batchFrames[i].Data) {
			t.Fatalf("frame %d samples differ between streaming and batch", i)
		}
	}

	// Profiles: bit-identical range–angle power maps.
	streamProfiles := profsC.Profiles()
	if len(streamProfiles) != len(batchProfiles) {
		t.Fatalf("profile count %d != %d", len(streamProfiles), len(batchProfiles))
	}
	for i := range batchProfiles {
		if !reflect.DeepEqual(streamProfiles[i].Power, batchProfiles[i].Power) {
			t.Fatalf("profile %d power map differs", i)
		}
	}

	// Detections: identical sequence, including empty sets.
	if !reflect.DeepEqual(detsC.Detections(), batchDets) {
		t.Fatal("detection sequences differ between streaming and batch")
	}

	// Tracks: same IDs, confirmation, and point-for-point positions.
	streamTracks := trk.Tracks()
	if len(streamTracks) != len(batchTracks) {
		t.Fatalf("track count %d != %d", len(streamTracks), len(batchTracks))
	}
	for i := range batchTracks {
		if streamTracks[i].ID != batchTracks[i].ID ||
			streamTracks[i].Confirmed != batchTracks[i].Confirmed ||
			!reflect.DeepEqual(streamTracks[i].Points, batchTracks[i].Points) {
			t.Fatalf("track %d differs between streaming and batch", i)
		}
	}

	// Breathing phase: identical unwrapped series.
	streamTimes, streamPhase := breath.Series()
	if !reflect.DeepEqual(streamTimes, batchTimes) || !reflect.DeepEqual(streamPhase, batchPhase) {
		t.Fatal("breathing-phase series differs between streaming and batch")
	}
}

// TestStreamingEquivalenceAnyWorkerCount re-runs a short capture with the
// worker pools forced to different sizes; the streamed output must not
// depend on GOMAXPROCS.
func TestStreamingEquivalenceAnyWorkerCount(t *testing.T) {
	const nFrames = 8
	const seed = 4
	s := testSession(t)
	run := func() [][]radar.Detection {
		detsC := NewCollectDetections()
		stages := append(frontEnd(s.Scene), detsC)
		p := New(s.Scene.Stream(0, nFrames, rand.New(rand.NewSource(seed))), stages...)
		if _, err := p.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return detsC.Detections()
	}
	prev := runtime.GOMAXPROCS(1)
	one := run()
	runtime.GOMAXPROCS(4)
	four := run()
	runtime.GOMAXPROCS(prev)
	if !reflect.DeepEqual(one, four) {
		t.Fatal("streamed detections depend on the worker count")
	}
}

// cancelAfter is a test stage that cancels the run's context once it has
// seen the given number of frames.
type cancelAfter struct {
	n      int
	seen   int
	cancel context.CancelFunc
}

func (c *cancelAfter) Name() string { return "cancel-after" }

func (c *cancelAfter) Process(ctx context.Context, it *Item) error {
	c.seen++
	if c.seen == c.n {
		c.cancel()
	}
	return nil
}

// TestCancelStopsMidCapture cancels an unbounded capture mid-stream: Run
// must return context.Canceled promptly and leave no goroutines behind.
func TestCancelStopsMidCapture(t *testing.T) {
	s := testSession(t)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trk := NewTrack(radar.TrackerConfig{})
	stages := append(frontEnd(s.Scene), trk, &cancelAfter{n: 3, cancel: cancel})
	// n < 0: an unbounded stream — only cancellation can stop this run.
	p := New(s.Scene.Stream(0, -1, rand.New(rand.NewSource(2))), stages...)
	frames, err := p.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if frames < 3 {
		t.Fatalf("processed %d frames before cancel, want >= 3", frames)
	}

	// All pool workers are joined before Run returns; give the runtime a
	// moment to retire exiting goroutines, then check for leaks.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before, %d after canceled run", before, after)
	}
}

// TestCancelBeforeStart returns immediately with ctx.Err and zero frames.
func TestCancelBeforeStart(t *testing.T) {
	s := testSession(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := New(s.Scene.Stream(0, 10, rand.New(rand.NewSource(2))), frontEnd(s.Scene)...)
	frames, err := p.Run(ctx)
	if !errors.Is(err, context.Canceled) || frames != 0 {
		t.Fatalf("Run = (%d, %v), want (0, context.Canceled)", frames, err)
	}
}

// TestDeadlineExpiresMidCapture drives cancellation through a timeout
// instead of an explicit cancel.
func TestDeadlineExpiresMidCapture(t *testing.T) {
	s := testSession(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	p := New(s.Scene.Stream(0, -1, rand.New(rand.NewSource(2))), frontEnd(s.Scene)...)
	if _, err := p.Run(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run = %v, want context.DeadlineExceeded", err)
	}
}

// TestFromFramesReplay runs the stage chain over a recorded capture and
// matches the batch front end.
func TestFromFramesReplay(t *testing.T) {
	s := testSession(t)
	frames := capture(t, s.Scene, 0, 6, rand.New(rand.NewSource(3)))
	want := processFrames(t, frames, s.Scene.Radar)

	detsC := NewCollectDetections()
	stages := append(frontEnd(s.Scene), detsC)
	if _, err := New(FromFrames(frames), stages...).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(detsC.Detections(), want) {
		t.Fatal("replayed detections differ from batch")
	}
}

// failStage always errors, to exercise error tagging.
type failStage struct{ err error }

func (f failStage) Name() string                                { return "boom-stage" }
func (f failStage) Process(ctx context.Context, it *Item) error { return f.err }

// TestStageErrorTagged verifies stage errors abort the run and stay
// matchable with errors.Is through the stage tag.
func TestStageErrorTagged(t *testing.T) {
	boom := errors.New("boom")
	frames := []*fmcw.Frame{fmcw.NewFrame(fmcw.DefaultParams(), 0)}
	_, err := New(FromFrames(frames), failStage{err: boom}).Run(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want wrapped boom", err)
	}
}
