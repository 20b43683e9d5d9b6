package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"rfprotect/internal/core"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/parallel"
	"rfprotect/internal/radar"
	"rfprotect/internal/reflector"
	"rfprotect/internal/scene"
)

// MultiRadarResult reproduces the §13 "Extended Threat Model" limitation
// the paper itself states: an eavesdropper coordinating two radars on
// different walls can flag a single-tag ghost. A real human triangulates to
// the same world position from both radars; the ghost's apparent position
// is radar-dependent (it lives on each radar's ray through the tag), so the
// cross-radar disagreement exposes it.
type MultiRadarResult struct {
	HumanDisagreement float64 // m, cross-radar position disagreement of the human
	GhostDisagreement float64 // m, same for the ghost
	GhostFlagged      bool    // disagreement exceeds the consistency gate
	HumanFlagged      bool
	Gate              float64
}

// MultiRadarCtx runs the two-radar consistency check in the home
// environment. Both radars' captures stop once ctx is done and the first
// ctx error is returned with both workers joined.
func MultiRadarCtx(ctx context.Context, seed int64) (MultiRadarResult, error) {
	var res MultiRadarResult
	res.Gate = 1.0
	params := fmcw.DefaultParams()

	// Radar A: bottom wall (the scene default), with the tag deployed at the
	// standard position by the session builder. Radar B: left wall, facing
	// +x, array along y — an ExtraRadars view, so the session wires it to
	// share radar A's tag (the paper's single-tag scenario) instead of
	// getting its own.
	room := scene.HomeRoom()
	sess, err := core.NewSession(core.SessionConfig{
		Room:        room,
		NoMultipath: true,
		ExtraRadars: []fmcw.Array{{
			Position:  geom.Point{X: 0, Y: room.Height / 2},
			AxisAngle: 1.5707963267948966, // array along +y
			Facing:    -1,                 // look toward +x
		}},
	})
	if err != nil {
		return res, err
	}
	scA, scB := sess.Views[0], sess.Views[1]

	// One human and one tag-ghost shared by both scenes.
	n := 80
	cx := scA.Radar.Position.X
	human := make(geom.Trajectory, n)
	ghost := make(geom.Trajectory, n)
	for i := range human {
		f := float64(i) / float64(n-1)
		human[i] = geom.Point{X: cx - 3 + 2*f, Y: 4.5 - 1.5*f}
		ghost[i] = geom.Point{X: cx + 0.4 + f, Y: 2.8 + 1.8*f}
	}
	hum := scene.NewHuman(human, params.FrameRate)
	scA.Humans = []*scene.Human{hum}
	scB.Humans = []*scene.Human{hum}

	tag, ctl := sess.Tag, sess.Ctl
	tagCfg := tag.Config()
	// The tag is programmed against radar A (the wall it defends); radar B
	// is at an unknown position, exactly the paper's single-tag scenario.
	if _, err := ctl.ProgramForRadar(ghost, scA.Radar, params.FrameRate, 0); err != nil {
		return res, err
	}

	// The two radars' capture-and-process chains are independent (separate
	// scenes and seeded rngs; a shared front-end plan is safe for concurrent
	// use), so they run as two indices of one fan-out.
	views := sess.Views[:2]
	frames := make([][]*fmcw.Frame, len(views))
	dets := make([][][]radar.Detection, len(views))
	errs := make([]error, len(views))
	err = parallel.ForEachCtx(ctx, len(views), 0, func(i int) {
		sc := views[i]
		frames[i], errs[i] = sc.CaptureCtx(ctx, 0, n, rand.New(rand.NewSource(parallel.SplitSeed(seed, i))))
		if errs[i] == nil {
			dets[i], errs[i] = radar.PlanFrontEnd(radar.DefaultConfig(), sc.Params).ProcessFrames(ctx, frames[i], sc.Radar)
		}
	})
	if err := firstError(err, errs); err != nil {
		return res, err
	}
	framesA, detsA, detsB := frames[0], dets[0], dets[1]

	// Cross-radar consistency per frame: nearest detection to each entity's
	// apparent position at each radar, then the disagreement between the
	// two radars' world-position estimates.
	humanDis := crossRadarDisagreement(detsA, detsB, framesA, func(t float64) geom.Point {
		return hum.PositionAt(t)
	}, func(t float64) geom.Point {
		return hum.PositionAt(t)
	})
	// The ghost's apparent position differs per radar: radar A sees it on
	// its programmed trajectory; radar B sees it along B's ray through the
	// active antenna.
	recs := ctl.Records()
	rec := recs[0]
	ghostAtA := func(t float64) geom.Point {
		return expectedGhostAt(rec, tagCfg, scA.Radar, t)
	}
	ghostAtB := func(t float64) geom.Point {
		return expectedGhostAt(rec, tagCfg, scB.Radar, t)
	}
	ghostDis := crossRadarDisagreement(detsA, detsB, framesA, ghostAtA, ghostAtB)

	res.HumanDisagreement = humanDis
	res.GhostDisagreement = ghostDis
	res.HumanFlagged = humanDis > res.Gate
	res.GhostFlagged = ghostDis > res.Gate
	return res, nil
}

// expectedGhostAt maps a disclosure entry at time t to the world position
// the given radar observes.
func expectedGhostAt(rec reflector.GhostRecord, cfg reflector.Config, arr fmcw.Array, t float64) geom.Point {
	i := int((t - rec.Start) / rec.Tick)
	if i < 0 {
		i = 0
	}
	if i >= len(rec.Entries) {
		i = len(rec.Entries) - 1
	}
	e := rec.Entries[i]
	p := cfg.AntennaPosition(e.Antenna)
	return arr.PointAt(arr.DistanceOf(p)+e.ExtraDistance, arr.AoAOf(p))
}

// crossRadarDisagreement matches, per frame, the detection nearest the
// entity's apparent position at each radar and returns the mean distance
// between the two radars' matched world positions.
func crossRadarDisagreement(detsA, detsB [][]radar.Detection, frames []*fmcw.Frame,
	posAtA, posAtB func(float64) geom.Point) float64 {
	sum, count := 0.0, 0
	for i := range detsA {
		if i >= len(detsB) {
			break
		}
		t := frames[i+1].Time
		a, okA := nearestDetection(detsA[i], posAtA(t), 1.0)
		b, okB := nearestDetection(detsB[i], posAtB(t), 1.0)
		if okA && okB {
			sum += a.Dist(b)
			count++
		}
	}
	if count == 0 {
		return -1
	}
	return sum / float64(count)
}

func nearestDetection(dets []radar.Detection, want geom.Point, gate float64) (geom.Point, bool) {
	best := -1
	bestD := gate
	for i, d := range dets {
		if e := d.Pos.Dist(want); e < bestD {
			best, bestD = i, e
		}
	}
	if best < 0 {
		return geom.Point{}, false
	}
	return dets[best].Pos, true
}

// Print renders the consistency-check outcome.
func (r MultiRadarResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Extended threat model (§13): coordinated dual radars")
	fmt.Fprintf(w, "  cross-radar disagreement: human %.2f m, ghost %.2f m (gate %.1f m)\n",
		r.HumanDisagreement, r.GhostDisagreement, r.Gate)
	fmt.Fprintf(w, "  verdict: human flagged=%v, ghost flagged=%v — a single tag cannot fool two walls\n",
		r.HumanFlagged, r.GhostFlagged)
}
