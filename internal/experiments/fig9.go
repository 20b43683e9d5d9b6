package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"

	"rfprotect/internal/dsp"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/parallel"
	"rfprotect/internal/radar"
	"rfprotect/internal/scene"
)

// Fig9Shape is one radar-localization experiment: a human walks a known
// shape; the radar's detected trajectory is compared against ground truth.
type Fig9Shape struct {
	Name        string
	GroundTruth geom.Trajectory
	Detected    geom.Trajectory
	MedianError float64 // meters
}

// Fig9Result holds the two localization microbenchmarks of §10.1.
type Fig9Result struct {
	Shapes []Fig9Shape
}

// Fig9Ctx runs the FMCW-radar localization microbenchmark in the office
// environment: a single subject walks two different shapes and the radar's
// detected trajectory must hug the ground-truth points. Once ctx is done
// the per-shape captures stop and the first ctx error is returned with
// every worker joined.
func Fig9Ctx(ctx context.Context, seed int64) (Fig9Result, error) {
	params := fmcw.DefaultParams()
	var res Fig9Result
	shapes := []struct {
		name string
		traj geom.Trajectory
	}{
		{"L-shape", lShape()},
		{"zigzag", zigzag()},
	}
	// The shapes are independent trials with their own seeds, so they run
	// concurrently; each writes its own slot and the slots are appended in
	// shape order afterwards, keeping the report ordering stable.
	results := make([]Fig9Shape, len(shapes))
	g := parallel.NewGroup(0)
	for i, sh := range shapes {
		i, sh := i, sh
		g.GoCtx(ctx, func() error {
			sc := scene.NewScene(scene.OfficeRoom(), params)
			human := scene.NewHuman(sh.traj, params.FrameRate)
			sc.Humans = []*scene.Human{human}
			rng := rand.New(rand.NewSource(parallel.SplitSeed(seed, i)))
			frames, err := sc.CaptureCtx(ctx, 0, len(sh.traj), rng)
			if err != nil {
				return err
			}
			pr := radar.NewProcessor(radar.DefaultConfig())
			detSeq, err := pr.ProcessFrames(ctx, frames, sc.Radar)
			if err != nil {
				return err
			}
			// Per-frame evaluation against the subject's true position at each
			// capture instant (the red ground-truth dots of Fig. 9).
			var detected geom.Trajectory
			var errs []float64
			for fi, dets := range detSeq {
				truth := human.PositionAt(frames[fi+1].Time)
				best, bestD := -1, 1.0
				for di, d := range dets {
					if e := d.Pos.Dist(truth); e < bestD {
						best, bestD = di, e
					}
				}
				if best >= 0 {
					detected = append(detected, dets[best].Pos)
					errs = append(errs, bestD)
				}
			}
			if len(detected) == 0 {
				return fmt.Errorf("fig9: no detections recovered for %s", sh.name)
			}
			results[i] = Fig9Shape{
				Name:        sh.name,
				GroundTruth: sh.traj,
				Detected:    detected,
				MedianError: dsp.Median(errs),
			}
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return res, err
	}
	res.Shapes = results
	return res, nil
}

// lShape walks along a corridor then turns 90°.
func lShape() geom.Trajectory {
	var t geom.Trajectory
	for i := 0; i <= 40; i++ {
		t = append(t, geom.Point{X: 3, Y: 2 + 0.075*float64(i)})
	}
	for i := 1; i <= 40; i++ {
		t = append(t, geom.Point{X: 3 + 0.075*float64(i), Y: 5})
	}
	return t
}

// zigzag sweeps back and forth across the room.
func zigzag() geom.Trajectory {
	var t geom.Trajectory
	for i := 0; i <= 100; i++ {
		f := float64(i) / 100
		t = append(t, geom.Point{
			X: 3 + 4*f,
			Y: 3.5 + 1.2*math.Sin(3*math.Pi*f),
		})
	}
	return t
}

// Print renders the per-shape localization summary.
func (r Fig9Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig 9: FMCW radar localization (office)")
	for _, s := range r.Shapes {
		fmt.Fprintf(w, "  %-8s  ground-truth pts %3d  detected pts %3d  median error %.3f m\n",
			s.Name, len(s.GroundTruth), len(s.Detected), s.MedianError)
	}
}
