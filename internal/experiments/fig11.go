package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"rfprotect/internal/dsp"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/metrics"
	"rfprotect/internal/motion"
	"rfprotect/internal/parallel"
	"rfprotect/internal/scene"
)

// Fig11Env is the spoofing-accuracy result for one environment.
type Fig11Env struct {
	Room   string
	Errors metrics.SpoofErrors
	// Medians (paper: home 5.56 cm / 2.05° / 12.70 cm,
	//          office 10.19 cm / 4.94° / 24.49 cm).
	MedianDistance float64 // meters
	MedianAngle    float64 // degrees
	MedianLocation float64 // meters
	Trajectories   int
}

// Fig11Result is the end-to-end 2-D spoofing accuracy evaluation of §11.1:
// cGAN trajectories spoofed through the tag in the home and office
// environments, errors measured against the generated ground truth.
type Fig11Result struct {
	Envs []Fig11Env
	// RangeResolution is the radar's range bin (15 cm); the paper's headline
	// claim is that median errors sit within roughly one bin.
	RangeResolution float64
}

// Fig11Ctx runs the spoofing-accuracy evaluation with sz.TrajPerRoom
// trajectories per environment. Once ctx is done, no new trials start,
// in-flight captures stop, and the first ctx error is returned with every
// worker joined.
func Fig11Ctx(ctx context.Context, sz Sizes, seed int64) (Fig11Result, error) {
	params := fmcw.DefaultParams()
	res := Fig11Result{RangeResolution: params.RangeResolution()}
	tr := TrainedGAN(sz, seed)
	// Paired design: each room sees the same trajectories and anchors, so
	// the home-vs-office difference isolates the environment.
	gens := make([]geom.Trajectory, sz.TrajPerRoom)
	genRng := rand.New(rand.NewSource(parallel.SplitSeed(seed, 100)))
	for i := range gens {
		gens[i] = tr.G.Generate(1, i%motion.NumClasses, genRng)[0]
	}
	for _, room := range []scene.Room{scene.HomeRoom(), scene.OfficeRoom()} {
		room := room
		// Trials are independent: each gets its own RNG stream split from
		// (seed+200, i) — the same stream in both rooms, preserving the
		// paired design — and writes only its own slot. Slots are merged in
		// trial order after the pool drains, so medians, CDFs, and printed
		// output are identical for every worker count.
		trials := make([]metrics.SpoofErrors, sz.TrajPerRoom)
		measured := make([]bool, sz.TrajPerRoom)
		errs := make([]error, sz.TrajPerRoom)
		trial := func(i int) error {
			rng := rand.New(rand.NewSource(parallel.SplitSeed(seed+200, i)))
			env, err := NewEnv(room, params)
			if err != nil {
				return err
			}
			world := FitGhostTrajectory(gens[i], env, room, rng)
			m, err := env.MeasureGhostCtx(ctx, world, motion.SampleRate, rng)
			if err != nil {
				return err
			}
			if len(m.Measured) < 5 {
				return nil
			}
			trials[i] = metrics.EvaluateSpoof(m.Measured, m.Requested, env.Scene.Radar)
			measured[i] = true
			return nil
		}
		err := parallel.ForEachCtx(ctx, sz.TrajPerRoom, 0, func(i int) { errs[i] = trial(i) })
		if err := firstError(err, errs); err != nil {
			return res, err
		}
		envRes := Fig11Env{Room: room.Name}
		for i := range trials {
			if !measured[i] {
				continue
			}
			envRes.Errors.Merge(trials[i])
			envRes.Trajectories++
		}
		envRes.MedianDistance, envRes.MedianAngle, envRes.MedianLocation = envRes.Errors.Medians()
		res.Envs = append(res.Envs, envRes)
	}
	return res, nil
}

// FitGhostTrajectory places a generated trajectory into the environment's
// spoofable region: centered on a random anchor inside the panel's angular
// fan, scaled down if its extent exceeds what the room band can hold, and
// kept beyond the tag (the reflector can only add delay, §5.1).
func FitGhostTrajectory(gen geom.Trajectory, env *Env, room scene.Room, rng *rand.Rand) geom.Trajectory {
	t := gen.Clone()
	// Scale oversized trajectories into a 2.5 m extent.
	if ext := t.RangeOfMotion(); ext > 2.5 {
		t = t.Scale(2.5/ext, t.Centroid())
	}
	// Center on the anchor.
	anchor := env.GhostAnchor(rng, t.RangeOfMotion())
	t = t.Translate(anchor.Sub(t.Centroid()))
	// Keep every point inside the room and beyond the tag's depth.
	minY := env.Tag.Config().Position.Y + 0.8
	out := make(geom.Trajectory, len(t))
	for i, p := range t {
		p = room.Clamp(p, 0.4)
		if p.Y < minY {
			p.Y = minY
		}
		out[i] = p
	}
	return out
}

// CDF returns the empirical CDF of one error population ("distance",
// "angle", "location") for environment i.
func (r Fig11Result) CDF(i int, which string) []dsp.CDFPoint {
	switch which {
	case "distance":
		return dsp.EmpiricalCDF(r.Envs[i].Errors.Distance)
	case "angle":
		return dsp.EmpiricalCDF(r.Envs[i].Errors.Angle)
	case "location":
		return dsp.EmpiricalCDF(r.Envs[i].Errors.Location)
	}
	return nil
}

// Print renders the per-environment medians and CDF deciles.
func (r Fig11Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig 11: 2-D spoofing accuracy (range resolution %.2f cm)\n", r.RangeResolution*100)
	for _, e := range r.Envs {
		fmt.Fprintf(w, "  %-6s (%d trajectories, %d points)\n", e.Room, e.Trajectories, len(e.Errors.Distance))
		fmt.Fprintf(w, "    median distance error  %6.2f cm\n", e.MedianDistance*100)
		fmt.Fprintf(w, "    median angle error     %6.2f deg\n", e.MedianAngle)
		fmt.Fprintf(w, "    median location error  %6.2f cm\n", e.MedianLocation*100)
		for _, p := range []float64{50, 80, 90} {
			fmt.Fprintf(w, "    p%.0f: dist %.2f cm, angle %.2f deg, loc %.2f cm\n", p,
				dsp.Percentile(e.Errors.Distance, p)*100,
				dsp.Percentile(e.Errors.Angle, p),
				dsp.Percentile(e.Errors.Location, p)*100)
		}
	}
}
