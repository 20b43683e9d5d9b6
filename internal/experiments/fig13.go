package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"rfprotect/internal/core"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/radar"
	"rfprotect/internal/reflector"
	"rfprotect/internal/scene"
)

// Fig13Result demonstrates legitimate sensing (§11.3): with one real human
// and one injected ghost, an eavesdropper tracks both, while a sensor with
// the tag's disclosure removes the ghost and keeps the human.
type Fig13Result struct {
	EavesdropperTracks int
	HumanTracksKept    int
	GhostTracksRemoved int
	HumanError         float64 // m, kept track vs true human trajectory
	HumanTrajectory    geom.Trajectory
	GhostTrajectory    geom.Trajectory
}

// Fig13Ctx runs the legitimate-sensing scenario in the home environment,
// with cooperative cancellation of the capture.
func Fig13Ctx(ctx context.Context, seed int64) (Fig13Result, error) {
	var res Fig13Result
	params := fmcw.DefaultParams()
	sess, err := core.NewSession(core.SessionConfig{Room: scene.HomeRoom(), NoMultipath: true})
	if err != nil {
		return res, err
	}
	sc, ctl := sess.Scene, sess.Ctl
	tagCfg := sess.Tag.Config()

	n := 100
	cx := sc.Radar.Position.X
	human := make(geom.Trajectory, n)
	ghost := make(geom.Trajectory, n)
	for i := range human {
		f := float64(i) / float64(n-1)
		human[i] = geom.Point{X: cx - 3 + 1.5*f, Y: 4.5 - 1.5*f}
		ghost[i] = geom.Point{X: cx + 0.4 + 0.8*f, Y: 2.8 + 1.8*f}
	}
	sc.Humans = []*scene.Human{scene.NewHuman(human, params.FrameRate)}
	rec, err := ctl.ProgramForRadar(ghost, sc.Radar, params.FrameRate, 0)
	if err != nil {
		return res, err
	}
	res.HumanTrajectory = human
	res.GhostTrajectory = ghost

	rng := rand.New(rand.NewSource(seed))
	frames, err := sc.CaptureCtx(ctx, 0, n, rng)
	if err != nil {
		return res, err
	}
	pr := radar.NewProcessor(radar.DefaultConfig())
	detSeq, err := pr.ProcessFrames(ctx, frames, sc.Radar)
	if err != nil {
		return res, err
	}
	tracks := radar.TrackDetections(radar.TrackerConfig{}, detSeq)
	res.EavesdropperTracks = len(tracks)

	legit := core.NewLegitSensor(tagCfg, sc.Radar)
	humans, ghosts := legit.Filter(tracks, []reflector.GhostRecord{rec})
	res.HumanTracksKept = len(humans)
	res.GhostTracksRemoved = len(ghosts)
	if len(humans) > 0 {
		best := humans[0]
		for _, h := range humans {
			if len(h.Points) > len(best.Points) {
				best = h
			}
		}
		// Time-aligned error: each track point vs the human's true position
		// at that instant.
		walker := scene.NewHuman(human, params.FrameRate)
		sum := 0.0
		for _, tp := range best.Points {
			sum += tp.Pos.Dist(walker.PositionAt(tp.Time))
		}
		res.HumanError = sum / float64(len(best.Points))
	}
	return res, nil
}

// Print renders the before/after track counts.
func (r Fig13Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig 13: legitimate sensing with disclosure")
	fmt.Fprintf(w, "  eavesdropper sees %d tracks (cannot tell which is fake)\n", r.EavesdropperTracks)
	fmt.Fprintf(w, "  legitimate sensor: %d ghost track(s) removed, %d human track(s) kept\n",
		r.GhostTracksRemoved, r.HumanTracksKept)
	fmt.Fprintf(w, "  kept human track error vs ground truth: %.3f m\n", r.HumanError)
}
