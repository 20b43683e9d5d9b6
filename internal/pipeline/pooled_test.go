package pipeline

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/radar"
	"rfprotect/internal/scene"
)

// chainResult is what a run of the full chain leaves behind once its buffers
// are recycled: the collected (copied) detections and the tracker's tracks.
type chainResult struct {
	frames int
	dets   [][]radar.Detection
	tracks []*radar.Track
}

// runGoldenChain runs the full eavesdropper chain (background-subtract →
// range-angle → peak-extract → doppler → track-with-velocity) over nFrames
// at the given worker count, with or without buffer recycling.
func runGoldenChain(t *testing.T, sc *scene.Scene, nFrames int, seed int64, workers int, pooled bool) chainResult {
	t.Helper()
	cfg := radar.DefaultConfig()
	cfg.Workers = workers
	plan := radar.CompileFrontEndPlan(cfg, sc.Params)
	pools := NewPools(sc.Params)
	detsC := NewCollectDetections()
	trk := NewTrackWithVelocity(radar.TrackerConfig{}, sc.Radar)
	stages := FrontEndStagesPlanned(plan, sc.Radar, pools)
	stages = append(stages, NewDopplerPlanned(plan, 6, 0, pools.Doppler), trk, detsC)
	src := sc.Stream(0, nFrames, rand.New(rand.NewSource(seed)))
	p := New(src, stages...)
	if pooled {
		src.UsePool(pools.Frames)
		p.UsePools(pools)
	}
	n, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return chainResult{frames: n, dets: detsC.Detections(), tracks: trk.Tracks()}
}

// TestChainEquivalentToBatch is the golden contract of the one front-end
// chain: for every worker count, with and without UsePools, it produces the
// detections and tracks of the batch reference — FrontEndPlan.ProcessFrames +
// radar.TrackDetections over Scene.CaptureCtx — frame for frame and point for
// point.
func TestChainEquivalentToBatch(t *testing.T) {
	const nFrames = 18
	const seed = 11
	sc := testSession(t).Scene
	frames := capture(t, sc, 0, nFrames, rand.New(rand.NewSource(seed)))
	wantDets := processFrames(t, frames, sc.Radar)
	wantTracks := radar.TrackDetections(radar.TrackerConfig{}, wantDets)
	for _, workers := range []int{1, 2, 0} {
		for _, pooled := range []bool{false, true} {
			name := fmt.Sprintf("workers=%d pooled=%v", workers, pooled)
			got := runGoldenChain(t, sc, nFrames, seed, workers, pooled)
			if got.frames != nFrames {
				t.Fatalf("%s: %d frames, want %d", name, got.frames, nFrames)
			}
			if !reflect.DeepEqual(got.dets, wantDets) {
				t.Fatalf("%s: detections differ from the batch reference", name)
			}
			if len(got.tracks) != len(wantTracks) {
				t.Fatalf("%s: %d tracks, want %d", name, len(got.tracks), len(wantTracks))
			}
			for i, w := range wantTracks {
				g := got.tracks[i]
				if g.ID != w.ID || g.Confirmed != w.Confirmed || !reflect.DeepEqual(g.Points, w.Points) {
					t.Fatalf("%s: track %d differs from the batch reference", name, i)
				}
			}
		}
	}
}

// TestPooledEquivalentToUnpooled pins what recycling must not change: for
// every worker count, the chain run with UsePools leaves the same
// detections and tracks as the same chain run without it — including the
// Doppler radial velocities, which the batch reference does not compute, so
// a pooled range–Doppler map recycled too early would show up here.
func TestPooledEquivalentToUnpooled(t *testing.T) {
	const nFrames = 18
	const seed = 11
	sc := testSession(t).Scene
	for _, workers := range []int{1, 2, 0} {
		want := runGoldenChain(t, sc, nFrames, seed, workers, false)
		got := runGoldenChain(t, sc, nFrames, seed, workers, true)
		if got.frames != want.frames {
			t.Fatalf("workers=%d: %d frames, want %d", workers, got.frames, want.frames)
		}
		if !reflect.DeepEqual(got.dets, want.dets) {
			t.Fatalf("workers=%d: pooled detections differ from unpooled", workers)
		}
		if len(got.tracks) != len(want.tracks) {
			t.Fatalf("workers=%d: %d tracks, want %d", workers, len(got.tracks), len(want.tracks))
		}
		for i, w := range want.tracks {
			g := got.tracks[i]
			if g.ID != w.ID || g.Confirmed != w.Confirmed || !reflect.DeepEqual(g.Points, w.Points) ||
				g.HasVelocity != w.HasVelocity || g.RadialVelocity != w.RadialVelocity {
				t.Fatalf("workers=%d: track %d differs", workers, i)
			}
		}
	}
}

// dopplerMapsCollector keeps a copy of every range–Doppler map, so it stays
// valid after the pipeline recycles the pooled map.
type dopplerMapsCollector struct{ maps []*radar.RangeDopplerMap }

func (c *dopplerMapsCollector) Name() string { return "collect-doppler-maps" }

func (c *dopplerMapsCollector) Process(ctx context.Context, it *Item) error {
	if it.RangeDoppler != nil {
		cp := *it.RangeDoppler
		cp.Power = append([]float64(nil), it.RangeDoppler.Power...)
		c.maps = append(c.maps, &cp)
	}
	return nil
}

// TestPlannedEquivalentToUnpooled checks the planned Doppler stage against
// the plain kernel call: with pooled maps, every sliding-window map the chain
// emits equals RangeDopplerInto into a fresh map over the same window of
// source frames.
func TestPlannedEquivalentToUnpooled(t *testing.T) {
	const nFrames = 14
	const window = 6
	const seed = 7
	sc := testSession(t).Scene
	frames := capture(t, sc, 0, nFrames, rand.New(rand.NewSource(seed)))
	ref := radar.PlanFrontEnd(radar.DefaultConfig(), sc.Params)
	pri := 1 / sc.Params.FrameRate
	var want []*radar.RangeDopplerMap
	for end := window; end <= nFrames; end++ {
		rows := make([][]complex128, window)
		for k, f := range frames[end-window : end] {
			rows[k] = f.Data[0]
		}
		m := &radar.RangeDopplerMap{}
		if err := ref.RangeDopplerInto(context.Background(), m, rows, sc.Params, pri); err != nil {
			t.Fatal(err)
		}
		want = append(want, m)
	}

	cfg := radar.DefaultConfig()
	cfg.Workers = 1
	plan := radar.CompileFrontEndPlan(cfg, sc.Params)
	pools := NewPools(sc.Params)
	mapsC := &dopplerMapsCollector{}
	stages := append(FrontEndStagesPlanned(plan, sc.Radar, pools),
		NewDopplerPlanned(plan, window, 0, pools.Doppler), mapsC)
	src := sc.Stream(0, nFrames, rand.New(rand.NewSource(seed))).UsePool(pools.Frames)
	if _, err := New(src, stages...).UsePools(pools).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(mapsC.maps) != len(want) {
		t.Fatalf("%d range–Doppler maps, want %d", len(mapsC.maps), len(want))
	}
	for i, w := range want {
		if !reflect.DeepEqual(mapsC.maps[i], w) {
			t.Fatalf("map %d differs from RangeDopplerInto", i)
		}
	}
}

// TestCollectorsCopyUnderUsePools pins the collectors' retention contract:
// with every buffer recycled through UsePools, the collected frames and
// profiles still equal the source frames and the batch RangeAngleInto outputs,
// because each collector keeps its own copy rather than a pooled buffer that
// a later frame overwrites.
func TestCollectorsCopyUnderUsePools(t *testing.T) {
	const nFrames = 8
	const seed = 5
	sc := testSession(t).Scene
	want := capture(t, sc, 0, nFrames, rand.New(rand.NewSource(seed)))

	pools := NewPools(sc.Params)
	framesC := NewCollectFrames()
	profsC := NewCollectProfiles()
	plan := radar.CompileFrontEndPlan(radar.DefaultConfig(), sc.Params)
	stages := append([]Stage{framesC}, FrontEndStagesPlanned(plan, sc.Radar, pools)...)
	stages = append(stages, profsC)
	src := sc.Stream(0, nFrames, rand.New(rand.NewSource(seed))).UsePool(pools.Frames)
	if _, err := New(src, stages...).UsePools(pools).Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	got := framesC.Frames()
	if len(got) != nFrames {
		t.Fatalf("collected %d frames, want %d", len(got), nFrames)
	}
	for i := range want {
		if got[i].Time != want[i].Time || !reflect.DeepEqual(got[i].Data, want[i].Data) {
			t.Fatalf("collected frame %d differs from the source frame", i)
		}
	}
	profs := profsC.Profiles()
	if len(profs) != nFrames-1 {
		t.Fatalf("collected %d profiles, want %d", len(profs), nFrames-1)
	}
	for i := 1; i < nFrames; i++ {
		ref := rangeAngle(t, want[i].Sub(want[i-1]))
		if profs[i-1].Time != ref.Time || !reflect.DeepEqual(profs[i-1].Power, ref.Power) {
			t.Fatalf("collected profile %d differs from the batch RangeAngleInto output", i-1)
		}
	}
}

// TestPooledRunRecyclesBuffers checks the ownership loop actually closes:
// after a pooled run every in-flight buffer has come back to its pool, so a
// longer capture reuses them instead of allocating.
func TestPooledRunRecyclesBuffers(t *testing.T) {
	const nFrames = 12
	s := testSession(t)
	pl := NewPools(s.Scene.Params)
	plan := radar.CompileFrontEndPlan(radar.DefaultConfig(), s.Scene.Params)
	stages := FrontEndStagesPlanned(plan, s.Scene.Radar, pl)
	stages = append(stages, NewDopplerPlanned(plan, 4, 0, pl.Doppler))
	src := s.Scene.Stream(0, nFrames, rand.New(rand.NewSource(1))).UsePool(pl.Frames)
	if _, err := New(src, stages...).UsePools(pl).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Sequential run: exactly one raw frame + one diff in flight, both
	// recycled at item completion. The pool should hold a tiny constant
	// number of frames, not one per processed frame.
	if got := pl.Frames.Len(); got == 0 || got > 4 {
		t.Fatalf("FramePool holds %d frames after run, want a small nonzero count", got)
	}
	if got := pl.Profiles.Len(); got == 0 || got > 2 {
		t.Fatalf("ProfilePool holds %d profiles after run, want 1-2", got)
	}
	if got := pl.Doppler.Len(); got == 0 || got > 2 {
		t.Fatalf("DopplerPool holds %d maps after run, want 1-2", got)
	}
}

// allocGuardFrames returns the small-shape params and array of the
// zero-allocation guards with a ring of distinct source frames, so the
// differencer and the Doppler window see changing data, as in a real capture.
func allocGuardFrames() (fmcw.Params, fmcw.Array, []*fmcw.Frame) {
	p := fmcw.DefaultParams()
	p.SampleRate = 128e3 // 64 samples per chirp keeps the guard fast
	p.NumAntennas = 4
	array := fmcw.Array{Facing: 1}
	rng := rand.New(rand.NewSource(3))
	var templates []*fmcw.Frame
	for i := 0; i < 4; i++ {
		rets := []fmcw.Return{
			array.ReturnFrom(geom.Point{X: 1.5, Y: 3.5}, 1, 0, rng.Float64()),
		}
		templates = append(templates, synthesize(p, rets, float64(i)/p.FrameRate, rng))
	}
	return p, array, templates
}

// TestStagesZeroAllocsSteadyState drives the three pooled hot-path stages
// on their own (no pipeline loop, no detection or tracking, Workers: 1) and
// asserts the steady state allocates nothing per frame: the subtract stage,
// the range-FFT/beamform stage, and the sliding-window Doppler stage.
func TestStagesZeroAllocsSteadyState(t *testing.T) {
	p, _, templates := allocGuardFrames()
	cfg := radar.DefaultConfig()
	cfg.Workers = 1
	plan := radar.CompileFrontEndPlan(cfg, p)
	pl := NewPools(p)
	stages := []Stage{
		newBackgroundSubtract(pl.Frames),
		newRangeAngle(plan, pl.Profiles),
		NewDopplerPlanned(plan, len(templates), 0, pl.Doppler),
	}

	ctx := context.Background()
	var it Item
	step := func(i int) {
		f := pl.Frames.Get(float64(i) / p.FrameRate)
		f.CopyFrom(templates[i%len(templates)])
		it = Item{Index: i, Frame: f}
		for _, st := range stages {
			if err := st.Process(ctx, &it); err != nil {
				t.Fatal(err)
			}
		}
		pl.Frames.Put(it.Frame)
		pl.Frames.Put(it.Diff)
		pl.Profiles.Put(it.Profile)
		pl.Doppler.Put(it.RangeDoppler)
	}
	// Warm-up: fill the differencer history and the Doppler window, build
	// plan scratch, and charge the pools.
	for i := 0; i < 2*len(templates); i++ {
		step(i)
	}
	i := 2 * len(templates)
	if allocs := testing.AllocsPerRun(100, func() {
		step(i)
		i++
	}); allocs != 0 {
		t.Fatalf("pooled stage chain allocates %v per frame in steady state, want 0", allocs)
	}
}

// TestPlannedChainZeroAllocsSteadyState drives the complete chain stage by
// stage — subtract, beamform, peak-extract with detection-buffer reuse,
// Doppler, tracking — at Workers: 1 and asserts a warmed-up frame allocates
// nothing in any of them.
func TestPlannedChainZeroAllocsSteadyState(t *testing.T) {
	p, array, templates := allocGuardFrames()
	cfg := radar.DefaultConfig()
	cfg.Workers = 1
	plan := radar.CompileFrontEndPlan(cfg, p)
	pools := NewPools(p)
	stages := FrontEndStagesPlanned(plan, array, pools)
	stages = append(stages, NewDopplerPlanned(plan, len(templates), 0, pools.Doppler))
	tcfg := radar.TrackerConfig{ConfirmHits: 1, MinTrackPoints: 1}
	trk := NewTrack(tcfg)
	stages = append(stages, trk)

	ctx := context.Background()
	var it Item
	var detBuf []radar.Detection
	step := func(i int) {
		f := pools.Frames.Get(float64(i) / p.FrameRate)
		f.CopyFrom(templates[i%len(templates)])
		it = Item{Index: i, Frame: f}
		it.Detections = detBuf[:0] // what Run's reused Item preserves
		for _, st := range stages {
			if err := st.Process(ctx, &it); err != nil {
				t.Fatal(err)
			}
		}
		detBuf = it.Detections
		pools.Frames.Put(it.Frame)
		pools.Frames.Put(it.Diff)
		pools.Profiles.Put(it.Profile)
		pools.Doppler.Put(it.RangeDoppler)
	}
	for i := 0; i < 16; i++ { // warm every pool, window, and track
		step(i)
	}
	for _, tr := range trk.Tracks() { // pre-grow point history past the run
		pts := make([]radar.TimedPoint, len(tr.Points), len(tr.Points)+4096)
		copy(pts, tr.Points)
		tr.Points = pts
	}
	i := 16
	if allocs := testing.AllocsPerRun(100, func() {
		step(i)
		i++
	}); allocs != 0 {
		t.Fatalf("planned chain allocates %v per frame in steady state, want 0", allocs)
	}
}
