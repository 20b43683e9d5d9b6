// Breathing: spoof human breathing with the tag's phase shifter (§11.4) and
// watch an eavesdropper's vital-sign monitor report a phantom's breaths.
//
//	go run ./examples/breathing
package main

import (
	"context"
	"fmt"
	"math/rand"

	"rfprotect/internal/core"
	"rfprotect/internal/geom"
	"rfprotect/internal/privacy"
	"rfprotect/internal/radar"
	"rfprotect/internal/scene"
)

func main() {
	sess, err := core.NewSession(core.SessionConfig{Room: scene.HomeRoom(), NoMultipath: true})
	if err != nil {
		panic(err)
	}
	sc, ctl := sess.Scene, sess.Ctl
	params := sc.Params
	tagCfg := sess.Tag.Config()

	// A real sleeper breathing at 14 breaths/min.
	sleeper := geom.Point{X: sc.Radar.Position.X - 3, Y: 4.5}
	h := scene.NewHuman(geom.Trajectory{sleeper}, 1)
	h.Breathing = scene.Breathing{Rate: 14.0 / 60, Amplitude: 0.005}
	sc.Humans = []*scene.Human{h}

	// The tag spoofs two phantom sleepers with different rates.
	ghosts := []struct {
		antenna int
		extra   float64
		rate    float64
	}{
		{1, 2.0, 18.0 / 60},
		{4, 3.5, 11.0 / 60},
	}
	for _, g := range ghosts {
		if _, err := ctl.ProgramBreathing(g.antenna, g.extra, g.rate, 0.005, 30, 0); err != nil {
			panic(err)
		}
	}

	// The eavesdropper monitors 30 seconds and reads everyone's "vitals".
	rng := rand.New(rand.NewSource(1))
	frames, err := sc.CaptureCtx(context.Background(), 0, int(30*params.FrameRate), rng)
	if err != nil {
		panic(err)
	}
	ex := radar.BreathingExtractor{}

	report := func(name string, dist float64) {
		_, phase := ex.PhaseSeries(frames, dist)
		rate := radar.EstimateRate(phase, params.FrameRate)
		fmt.Printf("  %-22s %.1f breaths/min\n", name, rate*60)
	}
	fmt.Println("eavesdropper's vital-sign report:")
	report("subject at bed", sc.Radar.DistanceOf(sleeper))
	for i, g := range ghosts {
		d := sc.Radar.DistanceOf(tagCfg.AntennaPosition(g.antenna)) + g.extra
		report(fmt.Sprintf("subject %d (phantom)", i+2), d)
	}
	fmt.Printf("\nonly 1 of 3 breathing signatures is real; a guess is right %.0f%% of the time\n",
		100*privacy.BreathingGuessProbability(1, len(ghosts)))
}
