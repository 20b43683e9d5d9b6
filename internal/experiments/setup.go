// Package experiments reproduces every table and figure of the paper's
// evaluation (§7, §10, §11). Each experiment is a pure function from a
// seed/size configuration to a structured result plus a text rendering that
// prints the same rows or series the paper reports. DESIGN.md carries the
// per-experiment index; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"context"
	"math/rand"
	"sync"

	"rfprotect/internal/core"
	"rfprotect/internal/dsp"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/gan"
	"rfprotect/internal/geom"
	"rfprotect/internal/motion"
	"rfprotect/internal/radar"
	"rfprotect/internal/reflector"
	"rfprotect/internal/scene"
)

// Sizes controls experiment scale. Full() matches the paper; Quick() keeps
// unit tests fast.
type Sizes struct {
	TrajPerRoom int // spoofed trajectories per environment (paper: 45)
	CorpusSize  int // real-trajectory corpus size (paper: 7000)
	GANSteps    int // cGAN training steps
	GANSamples  int // generated trajectories for FID/user study
	Judges      int // user-study participants (paper: 32)
}

// Full returns the paper-scale configuration.
func Full() Sizes {
	return Sizes{TrajPerRoom: 45, CorpusSize: 4000, GANSteps: 400, GANSamples: 400, Judges: 32}
}

// Quick returns a configuration small enough for unit tests.
func Quick() Sizes {
	return Sizes{TrajPerRoom: 4, CorpusSize: 400, GANSteps: 60, GANSamples: 80, Judges: 8}
}

// Env bundles one evaluated environment: a scene with an eavesdropper radar
// and an RF-Protect tag deployed broadside ~1.2 m in front of it, matching
// §9.3 (radar–reflector separation ≈ 1.2 m).
type Env struct {
	Scene *scene.Scene
	Tag   *reflector.Reflector
	Ctl   *reflector.Controller
}

// NewEnv builds the standard deployment in the given room. It is a thin
// wrapper over core.NewSession — the one shared wiring point for the
// scene→tag→radar stack — kept so experiment code reads in evaluation terms.
func NewEnv(room scene.Room, params fmcw.Params) (*Env, error) {
	s, err := core.NewSession(core.SessionConfig{Room: room, Params: params})
	if err != nil {
		return nil, err
	}
	return &Env{Scene: s.Scene, Tag: s.Tag, Ctl: s.Ctl}, nil
}

// GhostAnchor returns a world anchor inside the panel's spoofable fan for a
// trajectory with the given extent, chosen with rng so trajectories spread
// over the room.
func (e *Env) GhostAnchor(rng *rand.Rand, extent float64) geom.Point {
	cx := e.Scene.Radar.Position.X
	depth := 2.5 + rng.Float64()*1.5
	lateral := (rng.Float64() - 0.5) * 1.2
	_ = extent
	return geom.Point{X: cx + lateral, Y: depth}
}

// sharedTrainer caches one trained cGAN per (sizes, seed) so the many
// experiments that need generated trajectories don't retrain. sharedMu
// serializes the cache because the Run("all") sweep calls TrainedGAN from
// concurrent experiments; the first caller trains while the rest block,
// and training is seeded, so the winner is the same trainer a sequential
// sweep would have built.
var sharedMu sync.Mutex
var sharedTrainer *gan.Trainer
var sharedKey struct {
	steps, corpus int
	seed          int64
}

// TrainedGAN returns a cGAN trained on a fresh synthetic corpus, caching the
// result across experiments in the same process. It is safe for concurrent
// use; the returned trainer's mutating methods (further Train calls,
// Sample) are not, so callers sharing one trainer must serialize those.
func TrainedGAN(sz Sizes, seed int64) *gan.Trainer {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if sharedTrainer != nil && sharedKey.steps == sz.GANSteps && sharedKey.corpus == sz.CorpusSize && sharedKey.seed == seed {
		return sharedTrainer
	}
	ds := motion.Generate(sz.CorpusSize, seed)
	cfg := gan.DefaultConfig()
	cfg.Seed = seed + 1
	tr := gan.NewTrainer(cfg, ds)
	tr.Train(sz.GANSteps, 0, nil)
	sharedTrainer = tr
	sharedKey.steps, sharedKey.corpus, sharedKey.seed = sz.GANSteps, sz.CorpusSize, seed
	return tr
}

// GhostMeasurement is the outcome of spoofing one trajectory: the per-frame
// oracle-matched measured points, the generated (requested) positions at the
// same instants, and the post-discretization expected observations.
// Requested is the Fig. 11 ground truth — antenna quantization counts as
// spoofing error, exactly as §11.1 discusses.
type GhostMeasurement struct {
	Measured  geom.Trajectory
	Requested geom.Trajectory
	Expected  geom.Trajectory
}

// MeasureGhostCtx programs a ghost trajectory (world coordinates) against
// the environment's radar, captures frames over the session, and matches
// each frame's detections against the expected ghost position. The capture
// and front end stop and ctx.Err() is returned once ctx is done.
func (e *Env) MeasureGhostCtx(ctx context.Context, traj geom.Trajectory, fs float64, rng *rand.Rand) (GhostMeasurement, error) {
	var out GhostMeasurement
	rec, err := e.Ctl.ProgramForRadar(traj, e.Scene.Radar, fs, 0)
	if err != nil {
		return out, err
	}
	nFrames := int(float64(len(traj)-1)/fs*e.Scene.Params.FrameRate) + 1
	frames, err := e.Scene.CaptureCtx(ctx, 0, nFrames, rng)
	if err != nil {
		return out, err
	}
	detSeq, err := radar.PlanFrontEnd(radar.DefaultConfig(), e.Scene.Params).ProcessFrames(ctx, frames, e.Scene.Radar)
	if err != nil {
		return out, err
	}
	expect := rec.ExpectedObservation(e.Tag.Config(), e.Scene.Radar)
	for i, dets := range detSeq {
		ti := frames[i+1].Time
		idx := int((ti - rec.Start) / rec.Tick)
		if idx < 0 || idx >= len(expect) {
			continue
		}
		want := expect[idx]
		bestD := 0.6
		var best *radar.Detection
		for di := range dets {
			if d := dets[di].Pos.Dist(want); d < bestD {
				best, bestD = &dets[di], d
			}
		}
		if best != nil {
			out.Measured = append(out.Measured, best.Pos)
			out.Expected = append(out.Expected, want)
			out.Requested = append(out.Requested, sampleTraj(traj, fs, ti))
		}
	}
	// The paper's pipeline performs "smoothing over time and peak
	// rejection" (§9.1) before extracting trajectories; apply the same
	// median + moving-average smoothing the tracker uses.
	out.Measured = smoothTrajectory(out.Measured)
	return out, nil
}

// smoothTrajectory median-filters and lightly averages each axis.
func smoothTrajectory(t geom.Trajectory) geom.Trajectory {
	n := len(t)
	if n < 5 {
		return t
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i, p := range t {
		xs[i], ys[i] = p.X, p.Y
	}
	xs = dsp.MovingAverage(dsp.MedianFilter(xs, 5), 3)
	ys = dsp.MovingAverage(dsp.MedianFilter(ys, 5), 3)
	out := make(geom.Trajectory, n)
	for i := range out {
		out[i] = geom.Point{X: xs[i], Y: ys[i]}
	}
	return out
}

// sampleTraj linearly interpolates a trajectory sampled at fs Hz (starting
// at t=0) at time t.
func sampleTraj(traj geom.Trajectory, fs, t float64) geom.Point {
	ft := t * fs
	if ft <= 0 {
		return traj[0]
	}
	i := int(ft)
	if i >= len(traj)-1 {
		return traj[len(traj)-1]
	}
	return geom.Lerp(traj[i], traj[i+1], ft-float64(i))
}
