// Quickstart: deploy an RF-Protect tag, inject one ghost, and watch an
// eavesdropper FMCW radar hallucinate it.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"

	"rfprotect/internal/core"
	"rfprotect/internal/gan"
	"rfprotect/internal/geom"
	"rfprotect/internal/pipeline"
	"rfprotect/internal/radar"
	"rfprotect/internal/scene"
)

func main() {
	concurrent := flag.Bool("concurrent", false,
		"overlap the pipeline stages across goroutines (same tracks, same order)")
	flag.Parse()

	// 1. A home with an eavesdropper radar on the bottom wall and an
	//    RF-Protect tag deployed broadside to it.
	sess, err := core.NewSession(core.SessionConfig{Room: scene.HomeRoom()})
	if err != nil {
		panic(err)
	}
	sc := sess.Scene

	// 2. An RF-Protect system sharing the session's tag + a trajectory GAN.
	ganCfg := gan.DefaultConfig()
	ganCfg.Hidden = 24 // quickstart-sized generator
	sys := sess.NewSystem(core.Config{
		GAN:        &ganCfg,
		CorpusSize: 600,
		Seed:       1,
	})
	fmt.Println("training the trajectory generator (a few seconds)...")
	sys.TrainGenerator(nil, 80)

	// 3. Inject a ghost: a class-2 (medium range of motion) trajectory
	//    anchored 3 m into the room.
	anchor := geom.Point{X: sc.Radar.Position.X, Y: 3}
	rec, world, err := sys.DeployGhostCalibrated(2, anchor, sc.Radar, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("ghost deployed: %d control ticks, path length %.1f m\n",
		len(rec.Entries), world.PathLength())

	// 4. The eavesdropper watches 3 seconds through the streaming pipeline:
	//    each frame is synthesized, processed, and dropped before the next —
	//    memory stays flat no matter how long it listens, and the tracks are
	//    bit-identical to a batch CaptureCtx + ProcessFrames + TrackDetections.
	//    With -concurrent, each stage runs in its own goroutine connected by
	//    bounded channels — the output is bit-identical either way.
	nFrames := int(3 * sc.Params.FrameRate)
	rng := rand.New(rand.NewSource(42))
	plan := radar.CompileFrontEndPlan(radar.DefaultConfig(), sc.Params)
	pools := pipeline.NewPools(sc.Params)
	trk := pipeline.NewTrack(radar.TrackerConfig{})
	stages := append(pipeline.FrontEndStagesPlanned(plan, sc.Radar, pools), trk)
	src := sc.Stream(0, nFrames, rng).UsePool(pools.Frames)
	p := pipeline.New(src, stages...).UsePools(pools)
	if *concurrent {
		_, err = p.RunConcurrent(context.Background(), 2)
	} else {
		_, err = p.Run(context.Background())
	}
	if err != nil {
		panic(err)
	}
	tracks := trk.Tracks()

	fmt.Printf("eavesdropper sees %d moving target(s) in an EMPTY home:\n", len(tracks))
	for _, t := range tracks {
		tr := t.Smoothed()
		fmt.Printf("  track %d: %d points near %v (vs ghost error %.2f m)\n",
			t.ID, len(tr), tr.Centroid(), geom.MeanPointwiseError(tr, world))
	}
}
