// Package detect implements the tracker-side adversary of the spoofing
// arms race: a suite of detectors that try to tell RF-Protect ghosts (and
// replay-spoofer phantoms) apart from real humans in the eavesdropper's own
// output. RF-Protect's threat model (§12) assumes a naive tracker; the
// spoof-detection literature does not — chirp-parameter estimation and
// signal fingerprinting defeat naive injectors, and vehicular radar work
// adds kinematic-consistency checks. This package builds those attacks so
// the defense can be evaluated, and hardened, against them.
//
// Three detector families, one per tell the simulator actually produces:
//
//   - Switching-harmonic fingerprinting (harmonic.go): the tag's square-wave
//     switch reflects at ±2, ±3 multiples of its fundamental, and in a
//     chirp-coherent processor those harmonics land at exactly-predictable
//     aliased Doppler columns — a comb no human return has.
//   - Kinematic consistency (kinematic.go): a track's finite-difference
//     trajectory velocity must agree with its Doppler radial velocity, and
//     its speed/acceleration/jerk must stay humanly possible. The tag's
//     free-running switch phase gives ghosts a pseudo-random Doppler
//     signature their trajectory cannot explain.
//   - Chirp-parameter estimation (chirp.go): an active replay spoofer
//     re-locks onto every chirp with finite accuracy, so its phantom's range
//     jitters chirp to chirp, and its synchronization lag is measurable in
//     the radar-off probe.
//
// Every detector reduces to a scalar score that is deterministic, finite
// for arbitrary (even adversarial) inputs, and bit-identical for any
// pipeline worker count; internal/metrics turns score populations into
// ROC/AUC, and the armsrace experiment closes the loop against the
// reflector's hardening knobs.
package detect

import (
	"math"

	"rfprotect/internal/dsp"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/radar"
)

// hugeScore stands in for "maximally suspicious" when a computation on
// adversarial input would produce NaN or ±Inf: every exported score is
// finite by contract (see FuzzDetect).
const hugeScore = 1e12

// finiteOrHuge saturates suspicion values at hugeScore — NaN, ±Inf, and
// finite overshoots alike. An input weird enough to break arithmetic (or to
// score astronomically) is not a human, and the ceiling keeps every exported
// score within [0, hugeScore].
func finiteOrHuge(x float64) float64 {
	if math.IsNaN(x) || x > hugeScore {
		return hugeScore
	}
	if math.IsInf(x, -1) {
		return hugeScore
	}
	return x
}

// Thresholds are the operating points that turn scores into verdicts.
type Thresholds struct {
	// Harmonic flags tracks whose harmonic-comb score (noise-subtracted
	// probe-to-peak power ratio) reaches this value. The naive tag's third
	// harmonic carries (c3/c1)² ≈ 1/9 of the ghost's power per side — well
	// above this — while humans keep a small residual from micro-Doppler
	// and speckle leakage, well below it.
	Harmonic float64
	// Kinematic flags tracks whose kinematic score reaches this value; the
	// score is pre-normalized so 1 means "at the human limit".
	Kinematic float64
}

// DefaultThresholds returns operating points calibrated on the armsrace
// experiment's fixed-seed captures: humans score well below, naive ghosts
// well above.
func DefaultThresholds() Thresholds {
	return Thresholds{Harmonic: 0.1, Kinematic: 1.0}
}

// withDefaults fills zero fields.
func (t Thresholds) withDefaults() Thresholds {
	def := DefaultThresholds()
	if t.Harmonic <= 0 {
		t.Harmonic = def.Harmonic
	}
	if t.Kinematic <= 0 {
		t.Kinematic = def.Kinematic
	}
	return t
}

// Config bundles the suite's tuning.
type Config struct {
	Harmonic   HarmonicConfig
	Bounds     KinematicBounds
	Thresholds Thresholds
}

// withDefaults fills zero fields throughout.
func (c Config) withDefaults() Config {
	c.Harmonic = c.Harmonic.withDefaults()
	c.Bounds = c.Bounds.withDefaults()
	c.Thresholds = c.Thresholds.withDefaults()
	return c
}

// TrackScore is the suite's verdict on one track.
type TrackScore struct {
	TrackID int
	// Frames counts the range–Doppler frames that contributed harmonic
	// evidence.
	Frames int
	// Harmonic is the per-track switching-harmonic score: a high percentile
	// of the per-frame probe-to-peak power ratios.
	Harmonic float64
	// Kinematic is the consistency score (1 = at the human limit), the
	// maximum of the normalized speed/accel/jerk excesses and the
	// Doppler-mismatch excess.
	Kinematic float64
	// Kin carries the underlying kinematic statistics.
	Kin KinematicStats
	// Suspicion is the combined score: the maximum of each detector's score
	// over its threshold, so >= 1 means at least one detector fired. It
	// saturates at the same ceiling as every other score.
	Suspicion float64
}

// Flagged reports whether any detector reached its operating point.
func (s TrackScore) Flagged() bool { return s.Suspicion >= 1 }

// TrackScorer accumulates per-frame harmonic evidence against live tracks
// and renders combined verdicts. It is deterministic and single-threaded:
// both Observe and Score write to it (Score stores the verdicts of retired
// tracks), so callers streaming frames concurrently must serialize every
// Observe and Score call with the same lock that guards the tracker (the
// service room uses its emit-stage mutex).
type TrackScorer struct {
	cfg   Config
	array fmcw.Array
	// vmax is the unambiguous velocity band of the most recent map, used to
	// fold trajectory velocities for the Doppler-mismatch check.
	vmax float64
	// recs holds one evidence record per track struct. Keying by pointer
	// bounds the map by the tracker's allocated tracks: a recycled struct
	// (new ID) resets its record in place instead of adding one per ID.
	recs map[*radar.Track]*trackRecord
}

// trackRecord is the scorer's state for one *radar.Track.
type trackRecord struct {
	// id is the track ID the record belongs to; a struct the tracker
	// recycled under a new ID no longer matches it.
	id int
	// harm accumulates the per-frame harmonic scores.
	harm []float64
	// final is the stored verdict of a retired track, valid when hasFinal
	// is set and vmax still holds the bits it was computed at. A retired
	// track never changes and never gains evidence, so only a new map
	// band can change its score.
	final    TrackScore
	vmax     uint64
	hasFinal bool
}

// NewTrackScorer returns a scorer for tracks observed through the given
// array geometry; zero-valued config fields take defaults.
func NewTrackScorer(cfg Config, array fmcw.Array) *TrackScorer {
	return &TrackScorer{cfg: cfg.withDefaults(), array: array, recs: make(map[*radar.Track]*trackRecord)}
}

// record returns t's record, creating it on first sight and resetting it
// (keeping the evidence slice's capacity) when the tracker has recycled
// the struct under a new ID.
func (s *TrackScorer) record(t *radar.Track) *trackRecord {
	rec := s.recs[t]
	if rec == nil {
		rec = &trackRecord{id: t.ID}
		s.recs[t] = rec
	} else if rec.id != t.ID {
		*rec = trackRecord{id: t.ID, harm: rec.harm[:0]}
	}
	return rec
}

// Observe scores every active track of the tracker against one
// range–Doppler frame, accumulating the evidence per track. Nil maps are
// ignored.
func (s *TrackScorer) Observe(m *radar.RangeDopplerMap, tr *radar.Tracker) {
	if m == nil || tr == nil {
		return
	}
	s.vmax = m.MaxUnambiguousVelocity()
	tr.ForEachActive(func(t *radar.Track) {
		if len(t.Points) == 0 {
			return
		}
		r := s.array.DistanceOf(t.Points[len(t.Points)-1].Pos)
		rec := s.record(t)
		rec.harm = append(rec.harm, HarmonicScore(m, r, s.cfg.Harmonic))
	})
}

// Score renders the combined verdict for one track from the accumulated
// harmonic evidence and the track's own kinematics. The verdict of a
// retired track (radar.Track.Retired) is final, so Score stores it and
// returns the stored copy until a map with a different velocity band
// arrives; that write is why Score needs the same lock as Observe.
func (s *TrackScorer) Score(t *radar.Track) TrackScore {
	rec := s.record(t)
	vmax := math.Float64bits(s.vmax)
	if rec.hasFinal && rec.vmax == vmax {
		return rec.final
	}
	out := s.score(t, rec.harm)
	if t.Retired() {
		rec.final, rec.vmax, rec.hasFinal = out, vmax, true
	}
	return out
}

// score computes t's verdict from its harmonic evidence.
func (s *TrackScorer) score(t *radar.Track, harm []float64) TrackScore {
	out := TrackScore{TrackID: t.ID}
	if len(harm) > 0 {
		out.Frames = len(harm)
		out.Harmonic = finiteOrHuge(dsp.Percentile(harm, s.cfg.Harmonic.Percentile))
	}
	out.Kin = AnalyzeKinematics(t.Points, t.VelHist, s.array, s.vmax, s.cfg.Bounds)
	out.Kinematic = s.cfg.Bounds.Score(out.Kin)
	th := s.cfg.Thresholds
	out.Suspicion = finiteOrHuge(math.Max(out.Harmonic/th.Harmonic, out.Kinematic/th.Kinematic))
	return out
}

// Scores renders verdicts for a track set (typically Tracker.Tracks()),
// ordered as given.
func (s *TrackScorer) Scores(tracks []*radar.Track) []TrackScore {
	out := make([]TrackScore, len(tracks))
	for i, t := range tracks {
		out[i] = s.Score(t)
	}
	return out
}
