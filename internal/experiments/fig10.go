package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/motion"
	"rfprotect/internal/radar"
	"rfprotect/internal/scene"
)

// Fig10Result compares the background-subtracted range–angle profile of a
// real human against RF-Protect's ghost (Fig. 10a/b) and overlays a spoofed
// trajectory against its generated source (Fig. 10c).
type Fig10Result struct {
	HumanProfile *radar.Profile
	GhostProfile *radar.Profile
	// HumanPeak / GhostPeak are the dominant moving-reflection powers; the
	// paper's observation is that they are comparable because the tag
	// reflects the radar's own signal.
	HumanPeak float64
	GhostPeak float64

	// Fig. 10c: a cGAN trajectory and what the radar measured.
	Generated geom.Trajectory
	Spoofed   geom.Trajectory
	MeanError float64
}

// Fig10Ctx runs the reflector microbenchmarks of §10.2 and §10.3 in the
// office environment, with cooperative cancellation through the trajectory
// measurement.
func Fig10Ctx(ctx context.Context, sz Sizes, seed int64) (Fig10Result, error) {
	params := fmcw.DefaultParams()
	var res Fig10Result
	rng := rand.New(rand.NewSource(seed))

	// --- (a) human profile.
	{
		sc := scene.NewScene(scene.OfficeRoom(), params)
		traj := geom.Trajectory{{X: 4, Y: 3.5}, {X: 4.4, Y: 3.9}}
		sc.Humans = []*scene.Human{scene.NewHuman(traj, 1)}
		f0, err := sc.FrameAtCtx(ctx, 0, rng)
		if err != nil {
			return res, err
		}
		f1, err := sc.FrameAtCtx(ctx, 0.3, rng)
		if err != nil {
			return res, err
		}
		prof := &radar.Profile{}
		if err := radar.PlanFrontEnd(radar.DefaultConfig(), f0.Params).RangeAngleInto(ctx, f1.Sub(f0), prof); err != nil {
			return res, err
		}
		res.HumanProfile = prof
		res.HumanPeak = maxOf(res.HumanProfile.Power)
	}

	// --- (b) ghost profile at a comparable location.
	{
		env, err := NewEnv(scene.OfficeRoom(), params)
		if err != nil {
			return res, err
		}
		traj := geom.Trajectory{{X: 4, Y: 3.5}, {X: 4.4, Y: 3.9}}
		if _, err := env.Ctl.ProgramForRadar(traj, env.Scene.Radar, 1, 0); err != nil {
			return res, err
		}
		f0, err := env.Scene.FrameAtCtx(ctx, 0, rng)
		if err != nil {
			return res, err
		}
		f1, err := env.Scene.FrameAtCtx(ctx, 0.3, rng)
		if err != nil {
			return res, err
		}
		prof := &radar.Profile{}
		if err := radar.PlanFrontEnd(radar.DefaultConfig(), f0.Params).RangeAngleInto(ctx, f1.Sub(f0), prof); err != nil {
			return res, err
		}
		res.GhostProfile = prof
		res.GhostPeak = maxOf(res.GhostProfile.Power)
	}

	// --- (c) spoof one generated trajectory and measure it.
	env, err := NewEnv(scene.OfficeRoom(), params)
	if err != nil {
		return res, err
	}
	tr := TrainedGAN(sz, seed)
	gen := tr.G.Generate(1, 2, rng)[0]
	world := FitGhostTrajectory(gen, env, scene.OfficeRoom(), rng)
	m, err := env.MeasureGhostCtx(ctx, world, motion.SampleRate, rng)
	if err != nil {
		return res, err
	}
	res.Generated = m.Requested
	res.Spoofed = m.Measured
	res.MeanError = geom.MeanPointwiseError(m.Measured, m.Requested)
	return res, nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, v := range xs {
		if v > m {
			m = v
		}
	}
	return m
}

// Print summarizes the profile comparison and trajectory overlay.
func (r Fig10Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig 10: reflector microbenchmarks (office)")
	ratio := 0.0
	if r.HumanPeak > 0 {
		ratio = r.GhostPeak / r.HumanPeak
	}
	fmt.Fprintf(w, "  (a/b) moving-peak power: human %.3g, ghost %.3g (ratio %.2f)\n",
		r.HumanPeak, r.GhostPeak, ratio)
	fmt.Fprintf(w, "  (c)   spoofed vs generated trajectory: %d matched points, mean error %.3f m, span %.1f m\n",
		len(r.Spoofed), r.MeanError, geom.Trajectory(r.Generated).PathLength())
}
