package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"

	"rfprotect/internal/core"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/radar"
	"rfprotect/internal/replayspoof"
	"rfprotect/internal/scene"
)

// ProbeResult compares RF-Protect against the replay-spoofer baseline under
// the radar-off probe of Kapoor et al. [27] (§5, §12): the radar abruptly
// stops transmitting and listens. An active replay spoofer keeps emitting
// for its synchronization lag and is caught; RF-Protect's passive reflector
// has nothing to reflect and stays silent.
type ProbeResult struct {
	// Both defenses must actually spoof while the radar is on.
	SpooferGhostSeen bool
	TagGhostSeen     bool
	// Probe outcome during the off window.
	SpooferDetected  bool
	TagDetected      bool
	SpooferPeakPower float64
	TagPeakPower     float64
	NoiseFloor       float64
}

// ProbeCtx runs the radar-off detection experiment, with cooperative
// cancellation of the visibility captures.
func ProbeCtx(ctx context.Context, seed int64) (ProbeResult, error) {
	var res ProbeResult
	params := fmcw.DefaultParams()
	rng := rand.New(rand.NewSource(seed))

	// --- Scenario A: replay spoofer.
	scA := scene.NewScene(scene.HomeRoom(), params)
	scA.Multipath = false
	sp := replayspoof.New(geom.Point{X: scA.Radar.Position.X - 0.4, Y: 1.0}, 20e-9, 3)
	scA.Sources = []scene.ReturnSource{sp}
	sp.ObserveRadar(0, true)
	seen, err := ghostVisible(ctx, scA, sp.SpoofedDistance(scA.Radar), 0.5, rng)
	if err != nil {
		return res, err
	}
	res.SpooferGhostSeen = seen

	// --- Scenario B: RF-Protect tag.
	sess, err := core.NewSession(core.SessionConfig{Room: scene.HomeRoom(), NoMultipath: true})
	if err != nil {
		return res, err
	}
	scB, ctl := sess.Scene, sess.Ctl
	tagCfg := sess.Tag.Config()
	const extra = 2.5
	if _, err := ctl.ProgramBreathing(2, extra, 0.25, 0.005, 10, 0); err != nil {
		return res, err
	}
	tagGhostDist := scB.Radar.DistanceOf(tagCfg.AntennaPosition(2)) + extra
	seen, err = ghostVisible(ctx, scB, tagGhostDist, 0.5, rng)
	if err != nil {
		return res, err
	}
	res.TagGhostSeen = seen

	// --- The probe: radar off at t = 1.0, listen for 0.5 s at 1 kHz.
	sp.ObserveRadar(1.0, false)
	res.NoiseFloor = 1e-4
	var spSamples, tagSamples []float64
	for t := 1.0; t < 1.5; t += 1e-3 {
		spSamples = append(spSamples, sp.EmittedPower(t, scA.Radar.Position)+res.NoiseFloor*rng.Float64())
		// The passive tag reflects the (absent) radar signal: zero emission.
		tagSamples = append(tagSamples, res.NoiseFloor*rng.Float64())
	}
	thresh := 10 * res.NoiseFloor
	res.SpooferDetected = replayspoof.DetectByProbe(spSamples, thresh)
	res.TagDetected = replayspoof.DetectByProbe(tagSamples, thresh)
	res.SpooferPeakPower = replayspoof.MaxFloat(spSamples)
	res.TagPeakPower = replayspoof.MaxFloat(tagSamples)
	return res, nil
}

// ghostVisible checks that a spoofed reflection shows up within tol meters
// of the expected range in a background-subtracted capture.
func ghostVisible(ctx context.Context, sc *scene.Scene, wantDist, tol float64, rng *rand.Rand) (bool, error) {
	frames, err := sc.CaptureCtx(ctx, 0.2, 10, rng)
	if err != nil {
		return false, err
	}
	pr := radar.NewProcessor(radar.DefaultConfig())
	detSeq, err := pr.ProcessFrames(ctx, frames, sc.Radar)
	if err != nil {
		return false, err
	}
	for _, dets := range detSeq {
		for _, d := range dets {
			if math.Abs(d.Range-wantDist) < tol {
				return true, nil
			}
		}
	}
	return false, nil
}

// Print renders the probe comparison.
func (r ProbeResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Radar-off probe: replay spoofer vs RF-Protect")
	fmt.Fprintf(w, "  spoofing works while radar on: replay %v, RF-Protect %v\n",
		r.SpooferGhostSeen, r.TagGhostSeen)
	fmt.Fprintf(w, "  emissions during off window:   replay peak %.3g, RF-Protect peak %.3g (floor %.3g)\n",
		r.SpooferPeakPower, r.TagPeakPower, r.NoiseFloor)
	fmt.Fprintf(w, "  probe verdict: replay spoofer detected=%v, RF-Protect detected=%v\n",
		r.SpooferDetected, r.TagDetected)
}
