package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"rfprotect/internal/core"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/metrics"
	"rfprotect/internal/motion"
	"rfprotect/internal/parallel"
	"rfprotect/internal/radar"
	"rfprotect/internal/reflector"
	"rfprotect/internal/scene"
)

// AblationResult quantifies the design choices DESIGN.md calls out: how
// much room speckle contributes to spoofing error, what the square-wave
// harmonics add to the scene, and what amplitude matching does to the
// ghost's visibility.
type AblationResult struct {
	// Speckle ablation: median location error with and without diffuse
	// multipath in the office.
	LocErrWithSpeckle    float64
	LocErrWithoutSpeckle float64

	// Harmonic ablation: number of distinct moving detections with full
	// square-wave harmonics vs single-sideband first-harmonic-only.
	DetectionsFullHarmonics int
	DetectionsSSB           int

	// Amplitude ablation: ghost peak power under matched vs raw gain,
	// normalized by a reference human peak.
	MatchedPowerRatio float64
	RawPowerRatio     float64
}

// AblationCtx runs all three ablations at reduced scale, with cooperative
// cancellation through every capture and front-end pass.
func AblationCtx(ctx context.Context, seed int64) (AblationResult, error) {
	var res AblationResult
	params := fmcw.DefaultParams()
	ds := motion.Generate(40, seed)

	// --- Speckle.
	for _, speckle := range []bool{true, false} {
		room := scene.OfficeRoom()
		if !speckle {
			room.Speckle = 0
		}
		rng := rand.New(rand.NewSource(parallel.SplitSeed(seed, 1)))
		var errs metrics.SpoofErrors
		for i := 0; i < 5; i++ {
			env, err := NewEnv(room, params)
			if err != nil {
				return res, err
			}
			world := FitGhostTrajectory(ds.Traces[i*3], env, room, rng)
			m, err := env.MeasureGhostCtx(ctx, world, motion.SampleRate, rng)
			if err != nil {
				return res, err
			}
			errs.Merge(metrics.EvaluateSpoof(m.Measured, m.Requested, env.Scene.Radar))
		}
		_, _, loc := errs.Medians()
		if speckle {
			res.LocErrWithSpeckle = loc
		} else {
			res.LocErrWithoutSpeckle = loc
		}
	}

	// --- Harmonics: count distinct moving detections from one ghost.
	for _, ssb := range []bool{false, true} {
		room := scene.HomeRoom()
		room.Speckle = 0
		ssb := ssb
		sess, err := core.NewSession(core.SessionConfig{
			Room:         room,
			Params:       params,
			NoMultipath:  true,
			ConfigureTag: func(c *reflector.Config) { c.SSB = ssb },
		})
		if err != nil {
			return res, err
		}
		sc, ctl := sess.Scene, sess.Ctl
		traj := geom.Trajectory{{X: sc.Radar.Position.X, Y: 2.5}, {X: sc.Radar.Position.X + 1, Y: 4}}
		if _, err := ctl.ProgramForRadar(traj, sc.Radar, 0.5, 0); err != nil {
			return res, err
		}
		rng := rand.New(rand.NewSource(parallel.SplitSeed(seed, 2)))
		frames, err := sc.CaptureCtx(ctx, 0, 20, rng)
		if err != nil {
			return res, err
		}
		dets, err := radar.PlanFrontEnd(radar.DefaultConfig(), sc.Params).ProcessFrames(ctx, frames, sc.Radar)
		if err != nil {
			return res, err
		}
		maxDets := 0
		for _, d := range dets {
			if len(d) > maxDets {
				maxDets = len(d)
			}
		}
		if ssb {
			res.DetectionsSSB = maxDets
		} else {
			res.DetectionsFullHarmonics = maxDets
		}
	}

	// --- Amplitude control.
	humanPeak, err := peakPowerOfHuman(ctx, params, seed+3)
	if err != nil {
		return res, err
	}
	for _, mode := range []reflector.AmplitudeMode{reflector.AmplitudeMatchHuman, reflector.AmplitudeRaw} {
		p, err := peakPowerOfGhost(ctx, params, mode, seed+3)
		if err != nil {
			return res, err
		}
		if mode == reflector.AmplitudeMatchHuman {
			res.MatchedPowerRatio = p / humanPeak
		} else {
			res.RawPowerRatio = p / humanPeak
		}
	}
	return res, nil
}

func peakPowerOfHuman(ctx context.Context, params fmcw.Params, seed int64) (float64, error) {
	sc := scene.NewScene(scene.HomeRoom(), params)
	sc.Multipath = false
	sc.Room.Speckle = 0
	sc.Humans = []*scene.Human{scene.NewHuman(geom.Trajectory{{X: 7, Y: 3.5}, {X: 7.4, Y: 3.9}}, 1)}
	rng := rand.New(rand.NewSource(seed))
	return twoFramePeakPower(ctx, sc, rng)
}

func peakPowerOfGhost(ctx context.Context, params fmcw.Params, mode reflector.AmplitudeMode, seed int64) (float64, error) {
	room := scene.HomeRoom()
	room.Speckle = 0
	sess, err := core.NewSession(core.SessionConfig{Room: room, Params: params, NoMultipath: true})
	if err != nil {
		return 0, err
	}
	sc, ctl := sess.Scene, sess.Ctl
	ctl.SetAmplitudeMode(mode)
	traj := geom.Trajectory{{X: 7, Y: 3.5}, {X: 7.4, Y: 3.9}}
	if _, err := ctl.ProgramForRadar(traj, sc.Radar, 1, 0); err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	return twoFramePeakPower(ctx, sc, rng)
}

// twoFramePeakPower captures frames at t = 0 and 0.3 s, background-subtracts
// them, and returns the peak of the range–angle profile.
func twoFramePeakPower(ctx context.Context, sc *scene.Scene, rng *rand.Rand) (float64, error) {
	f0, err := sc.FrameAtCtx(ctx, 0, rng)
	if err != nil {
		return 0, err
	}
	f1, err := sc.FrameAtCtx(ctx, 0.3, rng)
	if err != nil {
		return 0, err
	}
	prof := &radar.Profile{}
	if err := radar.PlanFrontEnd(radar.DefaultConfig(), f0.Params).RangeAngleInto(ctx, f1.Sub(f0), prof); err != nil {
		return 0, err
	}
	return maxOf(prof.Power), nil
}

// Print renders the ablation summary.
func (r AblationResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Ablations:")
	fmt.Fprintf(w, "  office speckle:   median loc error %.1f cm with, %.1f cm without\n",
		r.LocErrWithSpeckle*100, r.LocErrWithoutSpeckle*100)
	fmt.Fprintf(w, "  harmonics:        max detections %d (full square wave) vs %d (SSB)\n",
		r.DetectionsFullHarmonics, r.DetectionsSSB)
	fmt.Fprintf(w, "  amplitude:        ghost/human power %.2f (matched) vs %.2f (raw gain)\n",
		r.MatchedPowerRatio, r.RawPowerRatio)
}
