package radar

import (
	"math"
	"slices"
	"testing"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
)

// churnDetections builds the worst-case spawn/drop workload for the track
// free list: one detection per frame that teleports 2 m each step, so with a
// 1 m gate no detection ever associates with the previous frame's track.
// Every frame spawns one track; MaxMisses frames later the orphan is dropped
// unconfirmed and must be recycled, never archived.
func churnDetection(i int) Detection {
	t := float64(i) * 0.05
	return Detection{Pos: geom.Point{X: 2 * float64(i), Y: 0}, Time: t}
}

// TestTrackerChurnAllocFree is the streaming-tracker allocation contract
// under track churn: once the free list holds one generation of dropped
// hypotheses, spawning and dropping a track per frame allocates nothing —
// spawns reuse recycled Track storage (Kalman filter reinitialized in
// place), and the association scratch is tracker-owned.
func TestTrackerChurnAllocFree(t *testing.T) {
	tr := NewTracker(TrackerConfig{})
	i := 0
	step := func() {
		tr.Observe(float64(i)*0.05, []Detection{churnDetection(i)})
		i++
	}
	// Warm-up: fill the association scratch and cycle enough tracks through
	// the drop path to charge the free list (MaxMisses frames of lag between
	// a spawn and its recycle, so run a few multiples of that).
	for i < 64 {
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("tracker churn allocates %v per frame once warm, want 0", allocs)
	}
}

// TestTrackerRecyclingInvisible pins the safety argument for track
// recycling: only tracks that Tracks() could never report (unconfirmed, or
// confirmed but shorter than MinTrackPoints) are recycled, so a run with
// heavy churn still reports exactly its real targets, with fresh IDs and
// clean histories on every respawned hypothesis.
func TestTrackerRecyclingInvisible(t *testing.T) {
	tr := NewTracker(TrackerConfig{})
	const frames = 120
	walker := func(i int) Detection {
		ts := float64(i) * 0.05
		return Detection{Pos: geom.Point{X: 0.02 * float64(i), Y: 3}, Time: ts}
	}
	seen := make(map[int]bool)
	for i := 0; i < frames; i++ {
		dets := []Detection{walker(i), churnDetection(i)}
		tr.Observe(float64(i)*0.05, dets)
		tr.ForEachActive(func(trk *Track) {
			// Recycled storage must never resurface a stale history: every
			// active hypothesis carries points only from its own lifetime.
			for _, p := range trk.Points {
				if p.Time > float64(i)*0.05 {
					t.Fatalf("frame %d: track %d carries a future point (stale recycled history)", i, trk.ID)
				}
			}
			if !seen[trk.ID] && len(trk.Points) != 1 {
				// First sighting of an ID: it must have spawned this frame
				// with exactly its spawn point.
				t.Fatalf("frame %d: new track %d spawned with %d points, want 1", i, trk.ID, len(trk.Points))
			}
			seen[trk.ID] = true
		})
	}
	tracks := tr.Tracks()
	if len(tracks) != 1 {
		t.Fatalf("got %d confirmed tracks, want exactly the walker", len(tracks))
	}
	trk := tracks[0]
	if len(trk.Points) < frames-8 {
		t.Fatalf("walker track has %d points, want nearly %d", len(trk.Points), frames)
	}
	for i := 1; i < len(trk.Points); i++ {
		if trk.Points[i].Time <= trk.Points[i-1].Time {
			t.Fatalf("walker track times not increasing at %d", i)
		}
	}
	// Churn spawned ~one hypothesis per frame; all of them drew fresh IDs
	// even when reusing recycled storage.
	if len(seen) < frames {
		t.Fatalf("saw %d distinct track IDs across the run, want >= %d (fresh ID per spawn)", len(seen), frames)
	}
}

// TestTrackRetired pins the immutability that detect.TrackScorer's stored
// verdicts rely on. Retired is true exactly for the tracks archived in done,
// never for active tracks or recycled ones, and a retired track's history
// and velocity never change again over further Observe and
// AttachVelocities calls. The workload is the churn stream plus walkers
// that each walk for 40 frames and then vanish long enough to be archived,
// under a range–Doppler map whose peak moves every frame, so any restamp of
// a retired track would show.
func TestTrackRetired(t *testing.T) {
	tr := NewTracker(TrackerConfig{KeepVelocityHistory: true})
	const rangeBins, dopplerBins = 40, 8
	m := &RangeDopplerMap{
		Params: fmcw.DefaultParams(), PRI: 1e-3,
		RangeBins: rangeBins, DopplerBins: dopplerBins,
		Power: make([]float64, rangeBins*dopplerBins),
	}
	type frozen struct {
		points      []TimedPoint
		velHist     []TimedVelocity
		radialBits  uint64
		hasVelocity bool
	}
	retired := make(map[*Track]frozen)
	respawned := 0
	seen := make(map[*Track]int) // struct -> ID it last carried
	const frames = 420
	for i := 0; i < frames; i++ {
		ts := float64(i) * 0.05
		dets := []Detection{churnDetection(i)}
		if phase := i % 60; phase < 40 {
			pos := geom.Point{X: 0.5 + 0.03*float64(phase), Y: 2 + 0.3*float64(i/60)}
			dets = append(dets, Detection{Pos: pos, Time: ts})
		}
		tr.Observe(ts, dets)
		for j := range m.Power {
			m.Power[j] = float64((i*7+j*3)%11) + 1
		}
		tr.AttachVelocities(m, fmcw.Array{})

		for _, trk := range tr.done {
			if !trk.Retired() {
				t.Fatalf("frame %d: archived track %d not Retired", i, trk.ID)
			}
			f, ok := retired[trk]
			if !ok {
				retired[trk] = frozen{
					points:      slices.Clone(trk.Points),
					velHist:     slices.Clone(trk.VelHist),
					radialBits:  math.Float64bits(trk.RadialVelocity),
					hasVelocity: trk.HasVelocity,
				}
				continue
			}
			if !slices.Equal(trk.Points, f.points) || !slices.Equal(trk.VelHist, f.velHist) ||
				math.Float64bits(trk.RadialVelocity) != f.radialBits || trk.HasVelocity != f.hasVelocity {
				t.Fatalf("frame %d: retired track %d changed after archiving", i, trk.ID)
			}
		}
		for _, trk := range tr.active {
			if trk.Retired() {
				t.Fatalf("frame %d: active track %d reports Retired", i, trk.ID)
			}
			if id, ok := seen[trk]; ok && id != trk.ID {
				respawned++
			}
			seen[trk] = trk.ID
		}
		for _, trk := range tr.spare {
			if trk.Retired() {
				t.Fatalf("frame %d: recycled track %d reports Retired", i, trk.ID)
			}
		}
	}
	// The walkers retire (one per 60-frame cycle but the last), with the
	// velocity history the immutability check is about; the churn keeps
	// recycling structs under fresh IDs.
	if len(retired) < frames/60-1 {
		t.Fatalf("%d tracks retired, want >= %d", len(retired), frames/60-1)
	}
	for trk, f := range retired {
		if !f.hasVelocity || len(f.velHist) == 0 {
			t.Fatalf("retired track %d has no velocity history to pin", trk.ID)
		}
	}
	if respawned == 0 {
		t.Fatal("no track struct was recycled under a new ID")
	}
	for _, trk := range tr.Tracks() {
		if _, ok := retired[trk]; ok != trk.Retired() {
			t.Fatalf("Tracks() entry %d: Retired = %v, archived = %v", trk.ID, trk.Retired(), ok)
		}
	}
}
