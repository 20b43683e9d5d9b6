// Office study: the §9.3 evaluation workflow in miniature — spoof several
// cGAN trajectories in the office environment and report the Fig. 11 error
// statistics, including the effect of cabinet multipath.
//
//	go run ./examples/officestudy
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"

	"rfprotect/internal/dsp"
	"rfprotect/internal/experiments"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/metrics"
	"rfprotect/internal/motion"
	"rfprotect/internal/scene"
)

func main() {
	sz := experiments.Quick()
	sz.GANSteps = 120
	fmt.Println("training trajectory generator...")
	tr := experiments.TrainedGAN(sz, 1)

	params := fmcw.DefaultParams()
	rng := rand.New(rand.NewSource(2))
	var errs metrics.SpoofErrors
	const nTraj = 6
	fmt.Printf("spoofing %d trajectories in the office...\n", nTraj)
	for i := 0; i < nTraj; i++ {
		room := scene.OfficeRoom()
		env, err := experiments.NewEnv(room, params)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		gen := tr.G.Generate(1, i%motion.NumClasses, rng)[0]
		world := experiments.FitGhostTrajectory(gen, env, room, rng)
		m, err := env.MeasureGhostCtx(context.Background(), world, motion.SampleRate, rng)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		e := metrics.EvaluateSpoof(m.Measured, m.Requested, env.Scene.Radar)
		d, a, l := e.Medians()
		fmt.Printf("  trajectory %d: %3d matched points, median dist %.1f cm, angle %.1f deg, loc %.1f cm\n",
			i+1, len(m.Measured), d*100, a, l*100)
		errs.Merge(e)
	}
	d, a, l := errs.Medians()
	fmt.Printf("\noverall medians: distance %.1f cm, angle %.1f deg, location %.1f cm\n", d*100, a, l*100)
	fmt.Printf("radar range resolution: %.1f cm\n", params.RangeResolution()*100)
	fmt.Printf("90th percentile location error: %.1f cm\n", dsp.Percentile(errs.Location, 90)*100)
}
