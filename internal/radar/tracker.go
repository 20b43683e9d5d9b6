package radar

import (
	"math"
	"sort"

	"rfprotect/internal/dsp"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
)

// TimedPoint is a tracked position with its capture time.
type TimedPoint struct {
	Time float64
	Pos  geom.Point
}

// TimedVelocity is one Doppler-derived radial-velocity sample with the time
// of the frame that produced it.
type TimedVelocity struct {
	Time     float64
	Velocity float64
}

// Track is one target hypothesis maintained by the tracker.
type Track struct {
	ID        int
	Points    []TimedPoint
	Confirmed bool

	// RadialVelocity is the latest Doppler-derived radial velocity estimate
	// in m/s (positive = approaching the radar), valid when HasVelocity is
	// set. It is attached by Tracker.AttachVelocities from a sliding-window
	// range–Doppler map; note the estimate is folded into the map's
	// unambiguous band (±MaxUnambiguousVelocity), so fast targets observed
	// at a low frame rate alias.
	RadialVelocity float64
	HasVelocity    bool

	// VelHist is the full radial-velocity sample series, recorded by
	// AttachVelocities only when TrackerConfig.KeepVelocityHistory is set
	// (it grows with track length, so the allocation-free streaming path
	// leaves it off). The spoof detectors in internal/detect consume it to
	// test Doppler-vs-trajectory consistency.
	VelHist []TimedVelocity

	// kf is embedded by value: spawning a track costs one allocation (the
	// Track itself), and a recycled Track reuses the filter storage in place
	// via Kalman.Reinit.
	kf       Kalman
	hits     int
	misses   int
	lastTime float64
	// retired marks a track archived in the tracker's done list; see
	// Retired.
	retired bool
}

// Retired reports whether the tracker has archived t: it left the active
// set confirmed and long enough to report. A retired track is final — the
// tracker never appends to its Points or VelHist again, never restamps its
// velocity, and never recycles its storage — so anything derived from it
// alone can be computed once (detect.TrackScorer stores such verdicts).
func (t *Track) Retired() bool { return t.retired }

// Trajectory returns the track's positions as a geom.Trajectory.
func (t *Track) Trajectory() geom.Trajectory {
	out := make(geom.Trajectory, len(t.Points))
	for i, p := range t.Points {
		out[i] = p.Pos
	}
	return out
}

// Smoothed returns the track positions after median filtering (window 5) on
// each axis — the paper's "smoothing over time and peak rejection" (§9.1).
func (t *Track) Smoothed() geom.Trajectory {
	n := len(t.Points)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i, p := range t.Points {
		xs[i], ys[i] = p.Pos.X, p.Pos.Y
	}
	xs = dsp.MedianFilter(xs, 5)
	ys = dsp.MedianFilter(ys, 5)
	xs = dsp.MovingAverage(xs, 3)
	ys = dsp.MovingAverage(ys, 3)
	out := make(geom.Trajectory, n)
	for i := range out {
		out[i] = geom.Point{X: xs[i], Y: ys[i]}
	}
	return out
}

// TrackerConfig tunes multi-target tracking.
type TrackerConfig struct {
	GateDistance   float64 // max association distance in meters
	ConfirmHits    int     // consecutive hits to confirm a track
	MaxMisses      int     // consecutive misses before a track is dropped
	ProcessNoise   float64 // Kalman acceleration noise
	MeasNoise      float64 // Kalman measurement variance
	MinTrackPoints int     // tracks shorter than this are discarded on output
	// KeepVelocityHistory makes AttachVelocities append every stamped
	// velocity to Track.VelHist instead of only keeping the latest value.
	// Off by default: the history grows with track length.
	KeepVelocityHistory bool
}

// DefaultTrackerConfig returns tracking parameters suited to walking humans
// observed at ~20 Hz.
func DefaultTrackerConfig() TrackerConfig {
	return TrackerConfig{
		GateDistance:   1.0,
		ConfirmHits:    3,
		MaxMisses:      8,
		ProcessNoise:   2.0,
		MeasNoise:      0.04,
		MinTrackPoints: 10,
	}
}

// Tracker associates per-frame detections into tracks with nearest-neighbor
// gating over Kalman predictions.
//
// The association scratch (candidate pairs, used-flags, the survivor list)
// is owned by the tracker and reused across Observe calls, and dropped
// tracks that could never appear in Tracks() output — unconfirmed or
// shorter than MinTrackPoints — go to a free list instead of the done
// archive and are reused by later spawns (Kalman state reinitialized in
// place, point history capacity retained). A warmed-up Observe under churn
// therefore allocates nothing: spawns draw from the free list, and only
// tracks that survive to confirmation can still grow. A Tracker is not
// safe for concurrent use.
type Tracker struct {
	cfg    TrackerConfig
	nextID int
	active []*Track
	done   []*Track

	pairs      assocPairs
	usedTrack  []bool
	usedDet    []bool
	aliveSpare []*Track
	spare      []*Track // recycled tracks awaiting respawn
}

// assocPair is one gated (track, detection) association candidate.
type assocPair struct {
	trackIdx, detIdx int
	dist             float64
}

// assocPairs sorts by ascending distance through sort.Interface on a
// pointer receiver — the pointer boxes into the interface without
// allocating, unlike a slice value or a sort.Slice closure. The comparator
// is identical to the sort.Slice form it replaces, and both run the same
// stdlib sort, so ties resolve into the same order.
type assocPairs []assocPair

func (p *assocPairs) Len() int      { return len(*p) }
func (p *assocPairs) Swap(i, j int) { s := *p; s[i], s[j] = s[j], s[i] }
func (p *assocPairs) Less(i, j int) bool {
	s := *p
	return s[i].dist < s[j].dist
}

// resizeBools returns *s resized to n elements, all false, reusing the
// backing array when it suffices.
func resizeBools(s *[]bool, n int) []bool {
	b := *s
	if cap(b) < n {
		b = make([]bool, n)
	} else {
		b = b[:n]
		for i := range b {
			b[i] = false
		}
	}
	*s = b
	return b
}

// NewTracker returns a tracker; zero-valued config fields take defaults.
func NewTracker(cfg TrackerConfig) *Tracker {
	def := DefaultTrackerConfig()
	if cfg.GateDistance <= 0 {
		cfg.GateDistance = def.GateDistance
	}
	if cfg.ConfirmHits <= 0 {
		cfg.ConfirmHits = def.ConfirmHits
	}
	if cfg.MaxMisses <= 0 {
		cfg.MaxMisses = def.MaxMisses
	}
	if cfg.ProcessNoise <= 0 {
		cfg.ProcessNoise = def.ProcessNoise
	}
	if cfg.MeasNoise <= 0 {
		cfg.MeasNoise = def.MeasNoise
	}
	if cfg.MinTrackPoints <= 0 {
		cfg.MinTrackPoints = def.MinTrackPoints
	}
	return &Tracker{cfg: cfg, nextID: 1}
}

// Observe feeds one frame's detections at time t into the tracker.
func (tr *Tracker) Observe(t float64, detections []Detection) {
	// Predict all active tracks forward.
	for _, trk := range tr.active {
		dt := t - trk.lastTime
		if dt > 0 {
			trk.kf.Predict(dt)
		}
	}
	// Greedy nearest-neighbor association: sort candidate (track, det)
	// pairs by distance, take each track and detection at most once.
	tr.pairs = tr.pairs[:0]
	for ti, trk := range tr.active {
		pred := trk.kf.Position()
		for di, det := range detections {
			d := pred.Dist(det.Pos)
			if d <= tr.cfg.GateDistance {
				tr.pairs = append(tr.pairs, assocPair{ti, di, d})
			}
		}
	}
	sort.Sort(&tr.pairs)
	usedTrack := resizeBools(&tr.usedTrack, len(tr.active))
	usedDet := resizeBools(&tr.usedDet, len(detections))
	for _, p := range tr.pairs {
		if usedTrack[p.trackIdx] || usedDet[p.detIdx] {
			continue
		}
		usedTrack[p.trackIdx] = true
		usedDet[p.detIdx] = true
		trk := tr.active[p.trackIdx]
		det := detections[p.detIdx]
		trk.kf.Update(det.Pos)
		trk.Points = append(trk.Points, TimedPoint{Time: t, Pos: trk.kf.Position()})
		trk.hits++
		trk.misses = 0
		trk.lastTime = t
		if trk.hits >= tr.cfg.ConfirmHits {
			trk.Confirmed = true
		}
	}
	// Unmatched tracks miss. The survivor list double-buffers against the
	// previous active backing so the filter allocates nothing. Dropped
	// tracks split two ways: ones Tracks() could still report (confirmed
	// with enough points) are archived in done; the rest — transient
	// clutter hypotheses, the overwhelming majority under churn — are
	// recycled. Recycling is safe because no dropped-and-ineligible track
	// is ever returned by Tracks(), and the per-frame observers
	// (ForEachActive, AttachVelocities) only see active tracks.
	alive := tr.aliveSpare[:0]
	for ti, trk := range tr.active {
		if usedTrack[ti] {
			alive = append(alive, trk)
			continue
		}
		trk.misses++
		trk.lastTime = t
		switch {
		case trk.misses <= tr.cfg.MaxMisses:
			alive = append(alive, trk)
		case tr.Reportable(trk):
			trk.retired = true
			tr.done = append(tr.done, trk)
		default:
			tr.spare = append(tr.spare, trk)
		}
	}
	tr.aliveSpare = tr.active[:0]
	tr.active = alive
	// Unmatched detections spawn tracks, reusing recycled storage when the
	// free list has any.
	for di, det := range detections {
		if usedDet[di] {
			continue
		}
		trk := tr.newTrack()
		trk.ID = tr.nextID
		trk.kf.Reinit(det.Pos, tr.cfg.ProcessNoise, tr.cfg.MeasNoise)
		trk.hits = 1
		trk.lastTime = t
		tr.nextID++
		trk.Points = append(trk.Points, TimedPoint{Time: t, Pos: det.Pos})
		tr.active = append(tr.active, trk)
	}
}

// newTrack pops a recycled track (history cleared, capacity kept) or
// allocates a fresh one. The caller stamps ID, filter state, and the first
// point.
func (tr *Tracker) newTrack() *Track {
	if n := len(tr.spare); n > 0 {
		trk := tr.spare[n-1]
		tr.spare[n-1] = nil
		tr.spare = tr.spare[:n-1]
		trk.Points = trk.Points[:0]
		trk.VelHist = trk.VelHist[:0]
		trk.Confirmed = false
		trk.RadialVelocity = 0
		trk.HasVelocity = false
		trk.misses = 0
		trk.retired = false
		return trk
	}
	return &Track{}
}

// AttachVelocities stamps every active track with the radial velocity of
// the dominant Doppler peak near the track's current range (±1 range bin),
// read from a range–Doppler map through the array geometry. Tracks whose
// range rows hold no power keep their previous estimate. Call it whenever a
// fresh sliding-window map is available — the streaming pipeline's
// velocity-aware TrackStage does this once per frame.
func (tr *Tracker) AttachVelocities(m *RangeDopplerMap, array fmcw.Array) {
	if m == nil {
		return
	}
	for _, trk := range tr.active {
		if len(trk.Points) == 0 {
			continue
		}
		r := array.DistanceOf(trk.Points[len(trk.Points)-1].Pos)
		if v, _, ok := m.PeakVelocityAtRange(r, 1); ok {
			trk.RadialVelocity = v
			trk.HasVelocity = true
			if tr.cfg.KeepVelocityHistory {
				// One sample per observation time: a re-stamp at the same
				// instant (e.g. a missed frame where lastTime didn't advance)
				// overwrites rather than duplicates.
				if n := len(trk.VelHist); n > 0 && trk.VelHist[n-1].Time == trk.lastTime {
					trk.VelHist[n-1].Velocity = v
				} else {
					trk.VelHist = append(trk.VelHist, TimedVelocity{Time: trk.lastTime, Velocity: v})
				}
			}
		}
	}
}

// ForEachActive calls fn for every live (not yet dropped) track in creation
// order — a zero-allocation view for per-frame observers such as the spoof
// scorer, which must see tracks before they are confirmed.
func (tr *Tracker) ForEachActive(fn func(*Track)) {
	for _, trk := range tr.active {
		fn(trk)
	}
}

// Reportable reports whether t is long enough to report: confirmed, with
// at least MinTrackPoints points. Once true it stays true, and a reportable
// track that leaves the active set is archived in Done rather than
// recycled. Tracks returns exactly the reportable tracks.
func (tr *Tracker) Reportable(t *Track) bool {
	return t.Confirmed && len(t.Points) >= tr.cfg.MinTrackPoints
}

// Done returns the archive of retired tracks in the order they retired. The
// archive is append-only: a caller that remembers its length after one
// Observe finds the tracks retired by the next Observe past that index.
// The slice is the tracker's own; callers must not modify it.
func (tr *Tracker) Done() []*Track { return tr.done }

// Tracks returns all reportable tracks (retired and active), ordered by ID.
func (tr *Tracker) Tracks() []*Track {
	out := append([]*Track(nil), tr.done...) // every archived track is reportable
	for _, t := range tr.active {
		if tr.Reportable(t) {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TrackDetections is a convenience that feeds a detection sequence (one
// slice per frame, times taken from the detections) through a fresh tracker
// and returns the confirmed tracks.
func TrackDetections(cfg TrackerConfig, frames [][]Detection) []*Track {
	tr := NewTracker(cfg)
	for _, dets := range frames {
		if len(dets) == 0 {
			continue
		}
		tr.Observe(dets[0].Time, dets)
	}
	return tr.Tracks()
}

// IsOscillatory reports whether a track looks like a non-human kinetic
// reflector (a fan): small spatial extent combined with fast periodic
// motion. The paper's threat model has the eavesdropper filter these out.
func IsOscillatory(t *Track, frameRate float64) bool {
	traj := t.Trajectory()
	if len(traj) < 8 {
		return false
	}
	if traj.RangeOfMotion() > 1.2 {
		return false
	}
	xs := make([]float64, len(traj))
	for i, p := range traj {
		xs[i] = p.X
	}
	fx := dsp.DominantFrequency(xs, frameRate)
	ys := make([]float64, len(traj))
	for i, p := range traj {
		ys[i] = p.Y
	}
	fy := dsp.DominantFrequency(ys, frameRate)
	f := math.Max(fx, fy)
	// Walking humans change direction well below ~1 Hz; fan blades orbit at
	// one to tens of Hz (possibly aliased, but still fast and regular).
	return f > 0.9
}

// FilterHumanTracks drops oscillatory (fan-like) tracks.
func FilterHumanTracks(tracks []*Track, frameRate float64) []*Track {
	var out []*Track
	for _, t := range tracks {
		if !IsOscillatory(t, frameRate) {
			out = append(out, t)
		}
	}
	return out
}
