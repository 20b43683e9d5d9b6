package pipeline

import (
	"context"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/radar"
)

// BackgroundSubtractStage streams successive-frame background subtraction
// (§3): it.Diff = frame − previous frame, holding exactly one frame of
// history. Frame 0 only seeds the history and leaves it.Diff nil. Difference
// frames and history come from a FramePool; the pipeline recycles the diffs
// when wired with UsePools.
type BackgroundSubtractStage struct {
	diff fmcw.Differencer
}

func newBackgroundSubtract(pool *fmcw.FramePool) *BackgroundSubtractStage {
	s := &BackgroundSubtractStage{}
	s.diff.UsePool(pool)
	return s
}

func (s *BackgroundSubtractStage) Name() string { return "background-subtract" }

//rfvet:allocfree
func (s *BackgroundSubtractStage) Process(ctx context.Context, it *Item) error {
	if d, ok := s.diff.Step(it.Frame); ok {
		it.Diff = d
	}
	return nil
}

// RangeAngleStage computes the range–angle power profile (range FFT +
// Eq. 2 beamforming) of the background-subtracted frame into a profile drawn
// from the pool. Items without a Diff pass through untouched.
type RangeAngleStage struct {
	plan *radar.FrontEndPlan
	pool *radar.ProfilePool
}

func newRangeAngle(plan *radar.FrontEndPlan, pool *radar.ProfilePool) *RangeAngleStage {
	return &RangeAngleStage{plan: plan, pool: pool}
}

func (s *RangeAngleStage) Name() string { return "range-angle" }

//rfvet:allocfree
func (s *RangeAngleStage) Process(ctx context.Context, it *Item) error {
	if it.Diff == nil {
		return nil
	}
	prof := s.pool.Get()
	if err := s.plan.RangeAngleInto(ctx, it.Diff, prof); err != nil {
		s.pool.Put(prof) // partially written: contents are unspecified anyway
		return err
	}
	it.Profile = prof
	return nil
}

// PeakExtractStage extracts target detections from the profile. Items
// without a Profile pass through untouched; items with one always get a
// detection set (possibly empty) and HasDets = true, mirroring the batch
// front end where every post-background frame yields one detection slice.
// The detections are appended into the item's recycled Detections backing,
// so they are valid only while the item is in flight; stages that keep them
// copy (DetectionsCollector does).
type PeakExtractStage struct {
	plan  *radar.FrontEndPlan
	array fmcw.Array
}

func newPeakExtract(plan *radar.FrontEndPlan, array fmcw.Array) *PeakExtractStage {
	return &PeakExtractStage{plan: plan, array: array}
}

func (s *PeakExtractStage) Name() string { return "peak-extract" }

//rfvet:allocfree
func (s *PeakExtractStage) Process(ctx context.Context, it *Item) error {
	if it.Profile == nil {
		return nil
	}
	it.Detections = s.plan.DetectInto(it.Detections, it.Profile, s.array)
	it.HasDets = true
	return nil
}

// FrontEndStagesPlanned returns the eavesdropper front end as a stage chain
// — background-subtract → range FFT/beamform → peak-extract — ready to
// prepend to a tracker or collector. Every kernel runs through the shared
// plan and every steady-state buffer (difference frames, profiles,
// detection slices) comes from pools, so with a source feeding from
// pools.Frames and Pipeline.UsePools(pools) the whole chain allocates
// nothing per frame once warm. The detection sequence is bit-identical to
// Processor.ProcessFrames over the same frames. The N-room daemon assembles
// each room from one plan per params-shape with exactly this chain.
func FrontEndStagesPlanned(plan *radar.FrontEndPlan, array fmcw.Array, pools *Pools) []Stage {
	return []Stage{
		newBackgroundSubtract(pools.Frames),
		newRangeAngle(plan, pools.Profiles),
		newPeakExtract(plan, array),
	}
}

// DopplerStage computes a sliding-window range–Doppler map over the last K
// raw frames: a K-frame ring buffer (fmcw.Window) feeds per-range-bin
// slow-time FFTs through the plan, and once the window is full every frame
// carries the map ending at it (it.RangeDoppler), drawn from the pool. The
// slow-time sampling interval is the frame interval 1/FrameRate, so the
// unambiguous velocity band is ±λ·FrameRate/4 — faster radial motion
// aliases, exactly as it would for a real chirp-coherent processor at that
// frame rate.
type DopplerStage struct {
	plan    *radar.FrontEndPlan
	win     *fmcw.Window
	antenna int
	burst   []*fmcw.Frame // scratch reused every frame
	pool    *radar.DopplerPool
}

// NewDopplerPlanned returns a Doppler stage with a K-frame window observing
// the given antenna (window < 2 is treated as 2 — one frame has no slow
// time), computing its maps through plan into maps drawn from pool.
func NewDopplerPlanned(plan *radar.FrontEndPlan, window, antenna int, pool *radar.DopplerPool) *DopplerStage {
	if window < 2 {
		window = 2
	}
	return &DopplerStage{plan: plan, win: fmcw.NewWindow(window), antenna: antenna, pool: pool}
}

func (s *DopplerStage) Name() string { return "range-doppler" }

func (s *DopplerStage) Process(ctx context.Context, it *Item) error {
	// The window must own its history: items are recycled (or dropped) as
	// soon as their stage chain completes, so the stage copies each frame
	// into its ring instead of aliasing it. A warmed-up ring reuses the
	// evicted slot's storage, so the copy costs no allocation.
	s.win.PushCopy(it.Frame)
	if !s.win.Full() {
		return nil
	}
	s.burst = s.win.Frames(s.burst[:0])
	m := s.pool.Get()
	if err := s.plan.RangeDopplerInto(ctx, m, s.burst, s.antenna, 1/it.Frame.Params.FrameRate); err != nil {
		s.pool.Put(m) // partially written: contents are unspecified anyway
		return err
	}
	it.RangeDoppler = m
	return nil
}

// TrackStage feeds each frame's detections into a multi-target tracker,
// exactly as radar.TrackDetections does in batch: empty detection sets are
// skipped, times come from the detections. Built with NewTrackWithVelocity
// it additionally stamps active tracks with radial velocities from the
// frame's range–Doppler map whenever one is present.
type TrackStage struct {
	tr       *radar.Tracker
	array    fmcw.Array
	velocity bool
}

// NewTrack returns a tracking stage over a fresh tracker (zero-valued
// config fields take radar defaults).
func NewTrack(cfg radar.TrackerConfig) *TrackStage {
	return &TrackStage{tr: radar.NewTracker(cfg)}
}

// NewTrackWithVelocity is NewTrack plus per-track radial-velocity
// estimation: items carrying a RangeDoppler map (from a DopplerStage
// earlier in the chain) update every active track's RadialVelocity through
// the given array geometry.
func NewTrackWithVelocity(cfg radar.TrackerConfig, array fmcw.Array) *TrackStage {
	return &TrackStage{tr: radar.NewTracker(cfg), array: array, velocity: true}
}

func (s *TrackStage) Name() string { return "track" }

func (s *TrackStage) Process(ctx context.Context, it *Item) error {
	if it.HasDets && len(it.Detections) > 0 {
		s.tr.Observe(it.Detections[0].Time, it.Detections)
	}
	if s.velocity && it.RangeDoppler != nil {
		s.tr.AttachVelocities(it.RangeDoppler, s.array)
	}
	return nil
}

// Tracks returns the confirmed tracks accumulated so far (see
// radar.Tracker.Tracks).
func (s *TrackStage) Tracks() []*radar.Track { return s.tr.Tracks() }

// Tracker exposes the stage's tracker for per-frame observers (the spoof
// scorer walks its active tracks after each Process call). Callers must
// apply the same synchronization they use around Process.
func (s *TrackStage) Tracker() *radar.Tracker { return s.tr }

// BreathingPhaseStage extracts the unwrapped carrier phase at a range bin
// from every raw frame — the vital-sign monitor of §11.4 — holding only the
// incremental unwrap state. The accumulated series is its output.
type BreathingPhaseStage struct {
	ex       radar.BreathingExtractor
	distance float64
	ps       *radar.PhaseStream
}

// NewBreathingPhase returns a phase stage monitoring the given distance.
func NewBreathingPhase(ex radar.BreathingExtractor, distance float64) *BreathingPhaseStage {
	return &BreathingPhaseStage{ex: ex, distance: distance}
}

func (s *BreathingPhaseStage) Name() string { return "breathing-phase" }

func (s *BreathingPhaseStage) Process(ctx context.Context, it *Item) error {
	if s.ps == nil {
		s.ps = s.ex.NewStream(it.Frame.Params, s.distance)
	}
	s.ps.Step(it.Frame)
	return nil
}

// Series returns the frame times and unwrapped phase samples so far,
// bit-identical to BreathingExtractor.PhaseSeries over the same frames.
func (s *BreathingPhaseStage) Series() (times, phase []float64) {
	if s.ps == nil {
		return nil, nil
	}
	return s.ps.Series()
}

// The collectors below accumulate per-frame outputs for consumers that need
// the whole sequence (measurement matching, tests, offline analysis). Memory
// grows with capture length, so they are not for bounded-memory streaming.
// Each stores a copy of what it keeps, never the item's buffers, so any
// chain may run with Pipeline.UsePools.

// DetectionsCollector accumulates the per-frame detection sets, matching
// Processor.ProcessFrames output shape.
type DetectionsCollector struct {
	dets [][]radar.Detection
}

// NewCollectDetections returns an empty detections collector.
func NewCollectDetections() *DetectionsCollector { return &DetectionsCollector{} }

func (s *DetectionsCollector) Name() string { return "collect-detections" }

func (s *DetectionsCollector) Process(ctx context.Context, it *Item) error {
	if it.HasDets {
		cp := make([]radar.Detection, len(it.Detections))
		copy(cp, it.Detections)
		s.dets = append(s.dets, cp)
	}
	return nil
}

// Detections returns the accumulated sequence.
func (s *DetectionsCollector) Detections() [][]radar.Detection { return s.dets }

// ProfilesCollector accumulates every computed profile.
type ProfilesCollector struct {
	profs []*radar.Profile
}

// NewCollectProfiles returns an empty profile collector.
func NewCollectProfiles() *ProfilesCollector { return &ProfilesCollector{} }

func (s *ProfilesCollector) Name() string { return "collect-profiles" }

func (s *ProfilesCollector) Process(ctx context.Context, it *Item) error {
	if it.Profile != nil {
		cp := *it.Profile
		cp.Power = append([]float64(nil), it.Profile.Power...)
		s.profs = append(s.profs, &cp)
	}
	return nil
}

// Profiles returns the accumulated profiles.
func (s *ProfilesCollector) Profiles() []*radar.Profile { return s.profs }

// FramesCollector accumulates every raw frame (tests only — it deliberately
// defeats the pipeline's bounded-memory property).
type FramesCollector struct {
	frames []*fmcw.Frame
}

// NewCollectFrames returns an empty frame collector.
func NewCollectFrames() *FramesCollector { return &FramesCollector{} }

func (s *FramesCollector) Name() string { return "collect-frames" }

func (s *FramesCollector) Process(ctx context.Context, it *Item) error {
	cp := fmcw.NewFrame(it.Frame.Params, it.Frame.Time)
	cp.CopyFrom(it.Frame)
	s.frames = append(s.frames, cp)
	return nil
}

// Frames returns the accumulated frames.
func (s *FramesCollector) Frames() []*fmcw.Frame { return s.frames }
