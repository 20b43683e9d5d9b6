package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"

	"rfprotect/internal/core"
	"rfprotect/internal/detect"
	"rfprotect/internal/dsp"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/metrics"
	"rfprotect/internal/motion"
	"rfprotect/internal/parallel"
	"rfprotect/internal/pipeline"
	"rfprotect/internal/radar"
	"rfprotect/internal/reflector"
	"rfprotect/internal/replayspoof"
	"rfprotect/internal/scene"
)

// The arms race: RF-Protect's evaluation assumes a naive tracker (§12), but
// the spoof-detection literature fields fingerprinting, kinematic, and
// chirp-estimation attacks against exactly this kind of injector. This
// experiment runs internal/detect's adversary suite against three defender
// configurations and reports per-detector ROC/AUC:
//
//   - naive tag: the paper's prototype as-is — the ±2/±3 switching-harmonic
//     comb is exposed;
//   - hardened tag: duty-cycle dithering plus harmonic pre-compensation
//     (reflector.Hardening) — the comb is suppressed, and the experiment
//     measures how much detector power survives;
//   - replay spoofer: the active attacker family the paper compares against,
//     fingerprinted by chirp-entrainment jitter and turn-off sync lag.
//
// Humans walking the same trajectories are the negative class throughout, so
// every AUC row reads "ghost vs human" under one detector. The honest
// headline: hardening kills the harmonic fingerprint, but the kinematic
// Doppler-mismatch detector keeps working, because the tag's free-running
// switch phase hands its ghosts an arbitrary aliased Doppler that no
// controller knob can reconcile with the spoofed trajectory.

// armsraceFrames is the per-capture length of the high-rate arms (0.6 s at
// 500 frames/s).
const armsraceFrames = 300

// armsraceWindow is the sliding Doppler window; 16 frames = 32 ms, inside
// one 40 ms control tick, so the switching tone stays coherent across the
// window (the tag hops frequency at tick boundaries), and enough Doppler
// columns that the probe's exclusion guards (static ridge, fundamental,
// mirror) leave room for the harmonic bands.
const armsraceWindow = 16

// armsraceParams returns the detector-side radar configuration: the default
// prototype sweep observed at a 500 Hz frame rate (a chirp-coherent
// tracker), with the IF rate halved — 256-sample chirps keep the same 15 cm
// bins out to 19 m, plenty for the third harmonic, at half the synthesis
// cost.
func armsraceParams() fmcw.Params {
	p := fmcw.DefaultParams()
	p.SampleRate = 512e3
	p.FrameRate = 500
	return p
}

// ArmsRaceResult is the experiment report.
type ArmsRaceResult struct {
	// Per-detector AUC (ghost positives vs human negatives), before and
	// after tag hardening.
	HarmonicAUCNaive     float64
	HarmonicAUCHardened  float64
	KinematicAUCNaive    float64
	KinematicAUCHardened float64
	CombinedAUCNaive     float64
	CombinedAUCHardened  float64
	// Operating point (detect.DefaultThresholds): flagged counts per class.
	NaiveFlagged    int
	HardenedFlagged int
	HumansFlagged   int
	GhostTracks     int
	HumanTracks     int
	// Median per-class harmonic scores, the hardening delta in raw units.
	HarmonicMedianNaive    float64
	HarmonicMedianHardened float64
	HarmonicMedianHuman    float64
	// Replay-spoofer arm: chirp-entrainment jitter AUC (spoofer phantoms vs
	// humans on matched trajectories) and the radar-off sync-lag estimates.
	ReplayJitterAUC float64
	ReplayLag       float64
	TagLag          float64
}

// armPopulation collects one class's per-track detector scores.
type armPopulation struct {
	harm, kin, susp []float64
	flagged         int
	tracks          int
}

func (p *armPopulation) add(s detect.TrackScore) {
	p.tracks++
	p.harm = append(p.harm, s.Harmonic)
	p.kin = append(p.kin, s.Kinematic)
	p.susp = append(p.susp, s.Suspicion)
	if s.Flagged() {
		p.flagged++
	}
}

// scoreStage feeds each frame's range–Doppler map to the spoof scorer right
// after the tracker has consumed it — the same ordering the service room
// uses under its emit mutex.
type scoreStage struct {
	sc  *detect.TrackScorer
	trk *pipeline.TrackStage
}

func (s *scoreStage) Name() string { return "spoof-score" }

func (s *scoreStage) Process(ctx context.Context, it *pipeline.Item) error {
	if it.RangeDoppler != nil {
		s.sc.Observe(it.RangeDoppler, s.trk.Tracker())
	}
	return nil
}

// armsraceTraj returns the i-th evaluation trajectory in world coordinates:
// a motion-model walk anchored inside the tag's spoofable fan. The same
// trajectory serves the human and both ghost arms of pair i, so the classes
// differ only in how the target is produced.
func armsraceTraj(seed int64, i int, radarPos geom.Point) geom.Trajectory {
	rng := rand.New(rand.NewSource(parallel.SplitSeed(seed, 7000+i)))
	tr := motion.NewGenerator(motion.DefaultConfig(), parallel.SplitSeed(seed, 8000+i)).Trace()
	// 5 samples at the motion model's 5 Hz covers the 0.6 s capture.
	if len(tr) > 5 {
		tr = tr[:5]
	}
	anchor := geom.Point{
		X: radarPos.X + (rng.Float64()-0.5)*1.2,
		Y: 2.5 + rng.Float64()*1.5,
	}
	out := make(geom.Trajectory, len(tr))
	for j, p := range tr {
		out[j] = anchor.Add(p.Sub(tr[0]))
	}
	return out
}

// captureScore runs one capture through the streaming stack — front end,
// sliding-window Doppler, velocity-attaching tracker, spoof scorer — and
// returns the verdict on the capture's dominant track.
func captureScore(ctx context.Context, sc *scene.Scene, rng *rand.Rand) (detect.TrackScore, bool, error) {
	plan := radar.CompileFrontEndPlan(radar.DefaultConfig(), sc.Params)
	pools := pipeline.NewPools(sc.Params)
	trkStage := pipeline.NewTrackWithVelocity(radar.TrackerConfig{KeepVelocityHistory: true}, sc.Radar)
	scorer := detect.NewTrackScorer(detect.Config{}, sc.Radar)
	stages := pipeline.FrontEndStagesPlanned(plan, sc.Radar, pools)
	stages = append(stages,
		pipeline.NewDopplerPlanned(plan, armsraceWindow, 0, pools.Doppler),
		trkStage,
		&scoreStage{sc: scorer, trk: trkStage},
	)
	src := sc.Stream(0, armsraceFrames, rng).UsePool(pools.Frames)
	pipe := pipeline.New(src, stages...).UsePools(pools)
	if _, err := pipe.Run(ctx); err != nil {
		return detect.TrackScore{}, false, err
	}
	var best *radar.Track
	for _, t := range trkStage.Tracks() {
		if best == nil || len(t.Points) > len(best.Points) {
			best = t
		}
	}
	if best == nil {
		return detect.TrackScore{}, false, nil
	}
	return scorer.Score(best), true, nil
}

// ghostScene assembles a fresh deployment with the trajectory programmed as
// a tag ghost, hardened or not.
func ghostScene(traj geom.Trajectory, hard reflector.Hardening) (*scene.Scene, error) {
	sess, err := core.NewSession(core.SessionConfig{
		Room:        scene.HomeRoom(),
		Params:      armsraceParams(),
		NoMultipath: true,
		ConfigureTag: func(c *reflector.Config) {
			c.SyncGranularity = 0.04
		},
	})
	if err != nil {
		return nil, err
	}
	sess.Ctl.SetHardening(hard)
	if _, err := sess.Ctl.ProgramForRadar(traj, sess.Scene.Radar, 5, 0); err != nil {
		return nil, err
	}
	return sess.Scene, nil
}

// humanScene assembles the same deployment with a real human walking the
// trajectory (the tag present but idle).
func humanScene(traj geom.Trajectory) (*scene.Scene, error) {
	sess, err := core.NewSession(core.SessionConfig{
		Room:        scene.HomeRoom(),
		Params:      armsraceParams(),
		NoMultipath: true,
		ConfigureTag: func(c *reflector.Config) {
			c.SyncGranularity = 0.04
		},
	})
	if err != nil {
		return nil, err
	}
	sess.Scene.Humans = append(sess.Scene.Humans, scene.NewHuman(traj, 5))
	return sess.Scene, nil
}

// ArmsRaceCtx runs the detector arms race at the given scale: sz.TrajPerRoom
// trajectory pairs per class. ctx must be non-nil (the captures run through
// the streaming pipeline); a done ctx aborts between captures with
// ctx.Err().
func ArmsRaceCtx(ctx context.Context, sz Sizes, seed int64) (ArmsRaceResult, error) {
	var res ArmsRaceResult
	n := sz.TrajPerRoom
	if n < 1 {
		n = 1
	}
	radarPos := scene.NewScene(scene.HomeRoom(), armsraceParams()).Radar.Position

	hardening := reflector.Hardening{DutyDither: 0.08, HarmonicSuppression: 0.9, Seed: seed}
	var humans, naive, hardened armPopulation
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		traj := armsraceTraj(seed, i, radarPos)

		arms := []struct {
			pop   *armPopulation
			build func() (*scene.Scene, error)
		}{
			{&humans, func() (*scene.Scene, error) { return humanScene(traj) }},
			{&naive, func() (*scene.Scene, error) { return ghostScene(traj, reflector.Hardening{}) }},
			{&hardened, func() (*scene.Scene, error) { return ghostScene(traj, hardening) }},
		}
		for a, arm := range arms {
			sc, err := arm.build()
			if err != nil {
				return res, err
			}
			rng := rand.New(rand.NewSource(parallel.SplitSeed(seed, 100*i+a)))
			score, ok, err := captureScore(ctx, sc, rng)
			if err != nil {
				return res, err
			}
			if ok {
				arm.pop.add(score)
			}
		}
	}

	res.GhostTracks = naive.tracks
	res.HumanTracks = humans.tracks
	res.NaiveFlagged = naive.flagged
	res.HardenedFlagged = hardened.flagged
	res.HumansFlagged = humans.flagged
	res.HarmonicAUCNaive = metrics.AUC(naive.harm, humans.harm)
	res.HarmonicAUCHardened = metrics.AUC(hardened.harm, humans.harm)
	res.KinematicAUCNaive = metrics.AUC(naive.kin, humans.kin)
	res.KinematicAUCHardened = metrics.AUC(hardened.kin, humans.kin)
	res.CombinedAUCNaive = metrics.AUC(naive.susp, humans.susp)
	res.CombinedAUCHardened = metrics.AUC(hardened.susp, humans.susp)
	res.HarmonicMedianNaive = medianOf(naive.harm)
	res.HarmonicMedianHardened = medianOf(hardened.harm)
	res.HarmonicMedianHuman = medianOf(humans.harm)

	if err := replayArm(ctx, sz, seed, &res); err != nil {
		return res, err
	}
	return res, nil
}

// replayArm fingerprints the active replay spoofer: JitterScore over
// per-frame phantom ranges (positives) against walking humans (negatives),
// plus the radar-off sync-lag estimates for the spoofer and the passive
// tag.
func replayArm(ctx context.Context, sz Sizes, seed int64, res *ArmsRaceResult) error {
	n := sz.TrajPerRoom
	if n < 1 {
		n = 1
	}
	params := fmcw.DefaultParams()
	const replayFrames = 50

	var pos, neg []float64
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(parallel.SplitSeed(seed, 9000+i)))

		// Positive: a jittering replay phantom.
		scA := scene.NewScene(scene.HomeRoom(), params)
		scA.Multipath = false
		sp := replayspoof.New(geom.Point{X: scA.Radar.Position.X - 0.4, Y: 1.0}, 20e-9, 3)
		// Sweep the delay so the phantom moves (~0.8 m/s) — a static phantom
		// would be cancelled as background clutter before it ever tracked.
		sp.DelayRate = 5.3e-9
		sp.SyncJitter = 2e-9
		sp.SyncJitterSeed = parallel.SplitSeed(seed, 9500+i)
		scA.Sources = []scene.ReturnSource{sp}
		sp.ObserveRadar(0, true)
		if s, ok, err := captureJitter(ctx, scA, replayFrames, rng); err != nil {
			return err
		} else if ok {
			pos = append(pos, s)
		}

		// Negative: a walking human on the matched trajectory (default 20 Hz
		// prototype setup — the replay tell is per-chirp, not frame-rate
		// dependent). Physical scatterers move smoothly at chirp timescales;
		// a replay phantom cannot. The tag's ghosts are synthetic too and
		// carry their own (smaller) stepping artifacts, so the
		// spoofer-vs-tag call is made by the sync-lag probe below, not by
		// jitter.
		traj := armsraceTraj(seed, i, scA.Radar.Position)
		scB := scene.NewScene(scene.HomeRoom(), params)
		scB.Multipath = false
		scB.Humans = append(scB.Humans, scene.NewHuman(traj, 5))
		if s, ok, err := captureJitter(ctx, scB, replayFrames, rng); err != nil {
			return err
		} else if ok {
			neg = append(neg, s)
		}
	}
	res.ReplayJitterAUC = metrics.AUC(pos, neg)

	// The radar-off probe, reduced to a lag estimate (§12 / Kapoor et al.).
	rng := rand.New(rand.NewSource(parallel.SplitSeed(seed, 9999)))
	sp := replayspoof.New(geom.Point{X: 7, Y: 1}, 20e-9, 3)
	sp.ObserveRadar(0, true)
	sp.ObserveRadar(1.0, false)
	const fs, floor = 1000.0, 1e-4
	var spSamples, tagSamples []float64
	for t := 1.0; t < 1.5; t += 1 / fs {
		spSamples = append(spSamples, sp.EmittedPower(t, geom.Point{X: 7.6, Y: 0})+floor*rng.Float64())
		tagSamples = append(tagSamples, floor*rng.Float64())
	}
	res.ReplayLag = detect.EstimateSyncLag(spSamples, fs, 10*floor)
	res.TagLag = detect.EstimateSyncLag(tagSamples, fs, 10*floor)
	return nil
}

// captureJitter captures frames, extracts the per-frame range of the
// dominant moving detection by nearest-neighbor continuity, and reduces the
// series to its chirp-to-chirp jitter score.
func captureJitter(ctx context.Context, sc *scene.Scene, nFrames int, rng *rand.Rand) (float64, bool, error) {
	frames, err := sc.CaptureCtx(ctx, 0, nFrames, rng)
	if err != nil {
		return 0, false, err
	}
	pr := radar.NewProcessor(radar.DefaultConfig())
	var ranges []float64
	last := math.NaN()
	detSeq, err := pr.ProcessFrames(ctx, frames, sc.Radar)
	if err != nil {
		return 0, false, err
	}
	for f, dets := range detSeq {
		// The first frame only seeds the background subtraction; its
		// "detections" are unsubtracted clutter and would mis-seed the
		// continuity gate.
		if f == 0 {
			continue
		}
		bestR, bestP, found := 0.0, 0.0, false
		for _, d := range dets {
			if !math.IsNaN(last) && math.Abs(d.Range-last) > 0.8 {
				continue
			}
			if d.Power > bestP {
				bestR, bestP, found = d.Range, d.Power, true
			}
		}
		if found {
			ranges = append(ranges, bestR)
			last = bestR
		}
	}
	if len(ranges) < 8 {
		return 0, false, nil
	}
	return detect.JitterScore(ranges), true, nil
}

// medianOf is a nil-safe median.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return dsp.Percentile(xs, 50)
}

// Print renders the arms-race report.
func (r ArmsRaceResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Detector arms race: adversary suite vs RF-Protect (AUC, ghost vs human)")
	fmt.Fprintf(w, "  tracks scored: %d ghosts, %d humans per arm\n", r.GhostTracks, r.HumanTracks)
	fmt.Fprintf(w, "  %-22s %12s %12s\n", "detector", "naive tag", "hardened tag")
	fmt.Fprintf(w, "  %-22s %12.3f %12.3f\n", "switching-harmonic", r.HarmonicAUCNaive, r.HarmonicAUCHardened)
	fmt.Fprintf(w, "  %-22s %12.3f %12.3f\n", "kinematic-consistency", r.KinematicAUCNaive, r.KinematicAUCHardened)
	fmt.Fprintf(w, "  %-22s %12.3f %12.3f\n", "combined suspicion", r.CombinedAUCNaive, r.CombinedAUCHardened)
	fmt.Fprintf(w, "  harmonic score medians: naive %.4f, hardened %.4f, human %.4f\n",
		r.HarmonicMedianNaive, r.HarmonicMedianHardened, r.HarmonicMedianHuman)
	fmt.Fprintf(w, "  at default thresholds: flagged %d/%d naive, %d/%d hardened, %d/%d humans\n",
		r.NaiveFlagged, r.GhostTracks, r.HardenedFlagged, r.GhostTracks, r.HumansFlagged, r.HumanTracks)
	fmt.Fprintf(w, "  replay spoofer: jitter AUC %.3f, sync-lag estimate %.3f s (tag: %.3f s)\n",
		r.ReplayJitterAUC, r.ReplayLag, r.TagLag)
	fmt.Fprintln(w, "  reading: hardening suppresses the harmonic comb; the Doppler-mismatch")
	fmt.Fprintln(w, "  kinematic check survives — the free-running switch cannot fake coherent Doppler.")
}
