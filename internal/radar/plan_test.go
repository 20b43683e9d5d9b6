package radar

import (
	"context"
	"math/rand"
	"testing"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/scene"
)

// rangeAngle and rangeDoppler are the tests' shorthand for uncancelable
// allocating kernel calls.
func rangeAngle(t testing.TB, pr *Processor, f *fmcw.Frame) *Profile {
	t.Helper()
	prof, err := pr.RangeAngle(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func rangeDoppler(t testing.TB, pr *Processor, chirps []*fmcw.Frame, antenna int, pri float64) *RangeDopplerMap {
	t.Helper()
	m, err := pr.RangeDoppler(context.Background(), chirps, antenna, pri)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// synthesize is the tests' shorthand for a fresh frame synthesized at at
// through the shared plan for p.
func synthesize(p fmcw.Params, rets []fmcw.Return, at float64, rng *rand.Rand) *fmcw.Frame {
	f := fmcw.NewFrame(p, at)
	if err := fmcw.PlanSynth(p).SynthesizeInto(context.Background(), f, rets, rng, 0); err != nil {
		panic(err)
	}
	return f
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

// captureBurst synthesizes a chirp burst for Doppler processing: nChirps
// consecutive chirps spaced pri seconds apart starting at t0.
func captureBurst(t testing.TB, sc *scene.Scene, t0 float64, nChirps int, pri float64, rng *rand.Rand) []*fmcw.Frame {
	t.Helper()
	out := make([]*fmcw.Frame, nChirps)
	for k := range out {
		f, err := sc.FrameAtCtx(context.Background(), t0+float64(k)*pri, rng)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = f
	}
	return out
}

// smallParams keeps scratch tests fast: 4 antennas, 64 samples.
func smallParams() fmcw.Params {
	p := fmcw.DefaultParams()
	p.SampleRate = 128e3
	p.NumAntennas = 4
	p.NoiseStd = 0.01
	return p
}

func scratchFrame(p fmcw.Params, seed int64, at float64) *fmcw.Frame {
	array := fmcw.Array{Position: geom.Point{}, AxisAngle: 0, Facing: 1}
	rng := rand.New(rand.NewSource(seed))
	rets := []fmcw.Return{
		array.ReturnFrom(geom.Point{X: 1 + rng.Float64(), Y: 3 + rng.Float64()}, 1, 0, 0),
		array.ReturnFrom(geom.Point{X: -2 + rng.Float64(), Y: 5}, 0.7, 0, 0),
	}
	return synthesize(p, rets, at, rng)
}

func profilesEqual(a, b *Profile) bool {
	if a.Params != b.Params || a.Time != b.Time ||
		a.RangeBins != b.RangeBins || a.AngleBins != b.AngleBins ||
		len(a.Power) != len(b.Power) {
		return false
	}
	for i := range a.Power {
		if a.Power[i] != b.Power[i] {
			return false
		}
	}
	return true
}

func dopplerMapsEqual(a, b *RangeDopplerMap) bool {
	if a.Params != b.Params || a.PRI != b.PRI ||
		a.RangeBins != b.RangeBins || a.DopplerBins != b.DopplerBins ||
		len(a.Power) != len(b.Power) {
		return false
	}
	for i := range a.Power {
		if a.Power[i] != b.Power[i] {
			return false
		}
	}
	return true
}

// RangeAngleInto must reproduce RangeAngle bit-for-bit: for any worker
// count, into a fresh destination, and into a dirty reused one (including a
// destination previously filled from a different frame, exercising the
// near-range re-zeroing).
func TestRangeAngleIntoBitIdentical(t *testing.T) {
	p := smallParams()
	frames := []*fmcw.Frame{scratchFrame(p, 1, 0), scratchFrame(p, 2, 0.05)}
	pool := NewProfilePool()
	for _, workers := range []int{1, 2, 0} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		reuse := pool.Get()
		for _, f := range frames {
			want := rangeAngle(t, NewProcessor(DefaultConfig()), f)
			pr := NewProcessor(cfg)
			got := rangeAngle(t, pr, f)
			if !profilesEqual(got, want) {
				t.Fatalf("workers=%d: RangeAngle differs across worker counts", workers)
			}
			// Dirty the reused destination, then overwrite it in place.
			for i := range reuse.Power {
				reuse.Power[i] = 1e9
			}
			if err := pr.Plan(p).RangeAngleInto(context.Background(), f, reuse); err != nil {
				t.Fatal(err)
			}
			if !profilesEqual(reuse, want) {
				t.Fatalf("workers=%d: RangeAngleInto into reused profile differs", workers)
			}
		}
		pool.Put(reuse)
	}
}

// RangeDopplerInto must reproduce RangeDoppler bit-for-bit, including
// into a reused map previously filled from a different burst length.
func TestRangeDopplerIntoBitIdentical(t *testing.T) {
	p := smallParams()
	pri := 1 / p.FrameRate
	var burst []*fmcw.Frame
	for i := 0; i < 8; i++ {
		burst = append(burst, scratchFrame(p, int64(10+i), float64(i)*pri))
	}
	pool := NewDopplerPool()
	for _, workers := range []int{1, 2, 0} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		m := pool.Get()
		for _, nd := range []int{5, 8, 3} { // shrinking nd exercises capacity reuse
			want := rangeDoppler(t, NewProcessor(DefaultConfig()), burst[:nd], 1, pri)
			pr := NewProcessor(cfg)
			got := rangeDoppler(t, pr, burst[:nd], 1, pri)
			if !dopplerMapsEqual(got, want) {
				t.Fatalf("workers=%d nd=%d: RangeDoppler differs across worker counts", workers, nd)
			}
			if err := pr.Plan(p).RangeDopplerInto(context.Background(), m, burst[:nd], 1, pri); err != nil {
				t.Fatal(err)
			}
			if !dopplerMapsEqual(m, want) {
				t.Fatalf("workers=%d nd=%d: RangeDopplerInto into reused map differs", workers, nd)
			}
		}
		pool.Put(m)
	}
}

func TestRangeDopplerIntoEmptyBurst(t *testing.T) {
	pl := CompileFrontEndPlan(DefaultConfig(), smallParams())
	m := &RangeDopplerMap{Power: make([]float64, 7), RangeBins: 1, DopplerBins: 7}
	if err := pl.RangeDopplerInto(context.Background(), m, nil, 0, 0.01); err != nil {
		t.Fatal(err)
	}
	if m.RangeBins != 0 || m.DopplerBins != 0 || len(m.Power) != 0 {
		t.Fatalf("empty burst left stale shape: %+v", m)
	}
}

// With Workers: 1 (inline fan-out, no goroutine spawns) the warmed-up Into
// kernels are allocation-free — the radar half of the zero-allocation
// steady state.
func TestIntoVariantsZeroAllocsSteadyState(t *testing.T) {
	p := smallParams()
	cfg := DefaultConfig()
	cfg.Workers = 1
	pl := CompileFrontEndPlan(cfg, p)
	f := scratchFrame(p, 3, 0)
	prof := &Profile{}
	if err := pl.RangeAngleInto(context.Background(), f, prof); err != nil { // warm scratch + plans
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := pl.RangeAngleInto(context.Background(), f, prof); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("RangeAngleInto allocates %v per op in steady state, want 0", allocs)
	}

	pri := 1 / p.FrameRate
	var burst []*fmcw.Frame
	for i := 0; i < 8; i++ {
		burst = append(burst, scratchFrame(p, int64(20+i), float64(i)*pri))
	}
	m := &RangeDopplerMap{}
	if err := pl.RangeDopplerInto(context.Background(), m, burst, 0, pri); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := pl.RangeDopplerInto(context.Background(), m, burst, 0, pri); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("RangeDopplerInto allocates %v per op in steady state, want 0", allocs)
	}
}

func TestPoolsRecycle(t *testing.T) {
	pp := NewProfilePool()
	prof := pp.Get()
	prof.Power = make([]float64, 16)
	pp.Put(prof)
	if pp.Len() != 1 {
		t.Fatalf("ProfilePool.Len = %d, want 1", pp.Len())
	}
	if got := pp.Get(); got != prof {
		t.Fatal("ProfilePool.Get did not reuse the recycled profile")
	}
	pp.Put(nil) // no-op
	if pp.Len() != 0 {
		t.Fatalf("ProfilePool.Len after Put(nil) = %d, want 0", pp.Len())
	}

	dp := NewDopplerPool()
	m := dp.Get()
	dp.Put(m)
	if dp.Len() != 1 {
		t.Fatalf("DopplerPool.Len = %d, want 1", dp.Len())
	}
	if got := dp.Get(); got != m {
		t.Fatal("DopplerPool.Get did not reuse the recycled map")
	}
	dp.Put(nil)
	if dp.Len() != 0 {
		t.Fatalf("DopplerPool.Len after Put(nil) = %d, want 0", dp.Len())
	}
}

// DetectInto must produce exactly Detect's detections (same values, same
// order) while reusing the caller's buffer, across repeated calls on
// different profiles.
func TestDetectIntoGoldenEquivalence(t *testing.T) {
	p := smallParams()
	array := fmcw.Array{Position: geom.Point{}, Facing: 1}
	pr := NewProcessor(DefaultConfig())
	pl := pr.Plan(p)
	var buf []Detection
	for seed := int64(1); seed <= 4; seed++ {
		prof := rangeAngle(t, pr, scratchFrame(p, seed, float64(seed)*0.05))
		want := pr.Detect(prof, array)
		buf = pl.DetectInto(buf, prof, array)
		if len(buf) != len(want) {
			t.Fatalf("seed %d: %d detections vs %d", seed, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("seed %d: detection %d differs: %+v vs %+v", seed, i, buf[i], want[i])
			}
		}
	}
}

// A warmed-up detect → track frame step allocates nothing: DetectInto reuses
// the caller's slice and the plan's finder scratch, and Tracker.Observe
// reuses its association scratch. Track point history is pre-grown so the
// measurement sees the association path, not slice doubling.
func TestDetectAndObserveZeroAllocsSteadyState(t *testing.T) {
	p := smallParams()
	array := fmcw.Array{Position: geom.Point{}, Facing: 1}
	cfg := DefaultConfig()
	cfg.Workers = 1
	pr := NewProcessor(cfg)
	pl := pr.Plan(p)
	f := scratchFrame(p, 3, 0)
	prof := &Profile{}
	if err := pl.RangeAngleInto(context.Background(), f, prof); err != nil {
		t.Fatal(err)
	}
	dets := pl.DetectInto(nil, prof, array)
	if len(dets) == 0 {
		t.Fatal("need at least one detection for a meaningful steady state")
	}

	tr := NewTracker(TrackerConfig{})
	tm := 0.0
	for i := 0; i < 10; i++ { // warm: spawn + confirm tracks, grow scratch
		tr.Observe(tm, dets)
		tm += 0.05
	}
	for _, trk := range tr.active {
		pts := make([]TimedPoint, len(trk.Points), len(trk.Points)+4096)
		copy(pts, trk.Points)
		trk.Points = pts
	}
	if allocs := testing.AllocsPerRun(100, func() {
		dets = pl.DetectInto(dets, prof, array)
		tr.Observe(tm, dets)
		tm += 0.05
	}); allocs != 0 {
		t.Errorf("detect+observe allocates %v per frame in steady state, want 0", allocs)
	}
}
