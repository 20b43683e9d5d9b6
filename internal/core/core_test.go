package core

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/gan"
	"rfprotect/internal/geom"
	"rfprotect/internal/motion"
	"rfprotect/internal/radar"
	"rfprotect/internal/reflector"
	"rfprotect/internal/scene"
)

func tinyGAN() gan.Config {
	c := gan.DefaultConfig()
	c.Hidden = 16
	c.Batch = 8
	return c
}

func quickSystem(t *testing.T, pos geom.Point) *System {
	t.Helper()
	ganCfg := tinyGAN()
	sys, err := New(Config{
		TagPosition: pos,
		TagAxis:     0,
		GAN:         &ganCfg,
		CorpusSize:  100,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewRejectsBadTag(t *testing.T) {
	bad := reflector.DefaultConfig(geom.Point{}, 0)
	bad.NumAntennas = 0
	if _, err := New(Config{Tag: &bad}); err == nil {
		t.Fatal("invalid tag config accepted")
	}
}

func TestSampleTrajectory(t *testing.T) {
	sys := quickSystem(t, geom.Point{X: 4, Y: 1})
	tr, err := sys.SampleTrajectory(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != motion.TraceLen {
		t.Fatalf("length %d", len(tr))
	}
	if _, err := sys.SampleTrajectory(-1); err == nil {
		t.Fatal("bad class accepted")
	}
	if _, err := sys.SampleTrajectory(motion.NumClasses); err == nil {
		t.Fatal("bad class accepted")
	}
}

func TestDeployGhostProducesDisclosure(t *testing.T) {
	sys := quickSystem(t, geom.Point{X: 4, Y: 1})
	rec, err := sys.DeployGhost(1, geom.Point{X: 0, Y: 3}, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Entries) == 0 || rec.Start != 2.0 {
		t.Fatalf("record %+v", rec)
	}
	if got := len(sys.Disclosures()); got != 1 {
		t.Fatalf("disclosures %d", got)
	}
	// The tag now reflects during the session.
	arr := fmcw.Array{Position: geom.Point{X: 4.5, Y: 0}, Facing: 1}
	if rets := sys.Tag().ReturnsAt(3.0, arr); len(rets) == 0 {
		t.Fatal("deployed ghost produces no returns")
	}
}

func TestDeployBreathingGhost(t *testing.T) {
	sys := quickSystem(t, geom.Point{X: 4, Y: 1})
	rec, err := sys.DeployBreathingGhost(1, 2.5, 0.25, 0.005, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Entries) < 100 {
		t.Fatalf("breathing record too short: %d", len(rec.Entries))
	}
}

func TestSaveLoadGenerator(t *testing.T) {
	sys := quickSystem(t, geom.Point{X: 4, Y: 1})
	var buf bytes.Buffer
	if err := sys.SaveGenerator(&buf); err != nil {
		t.Fatal(err)
	}
	sys2 := quickSystem(t, geom.Point{X: 4, Y: 1})
	if err := sys2.LoadGenerator(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestTrainGeneratorRuns(t *testing.T) {
	sys := quickSystem(t, geom.Point{X: 4, Y: 1})
	sys.TrainGenerator(nil, 2)
	if len(sys.Trainer().History) != 2 {
		t.Fatalf("history %d", len(sys.Trainer().History))
	}
	ds := motion.Generate(60, 5)
	sys.TrainGenerator(&ds, 1)
	if len(sys.Trainer().History) != 1 {
		t.Fatal("new dataset should reset the trainer")
	}
}

func TestLegitSensorFiltersGhost(t *testing.T) {
	// End to end Fig. 13: one real human + one ghost; the legitimate sensor
	// removes the disclosed ghost, the eavesdropper sees both.
	params := fmcw.DefaultParams()
	params.NoiseStd = 0.003
	sc := scene.NewScene(scene.HomeRoom(), params)
	sc.Multipath = false

	tagPos := geom.Point{X: sc.Radar.Position.X - 0.5, Y: 1.2}
	sys := quickSystem(t, tagPos)
	sc.Sources = []scene.ReturnSource{sys.Tag()}

	// Real human on the left.
	n := 80
	humanTraj := make(geom.Trajectory, n)
	for i := range humanTraj {
		f := float64(i) / float64(n-1)
		humanTraj[i] = geom.Point{X: 3 + 1.5*f, Y: 5 - 1.5*f}
	}
	sc.Humans = []*scene.Human{scene.NewHuman(humanTraj, params.FrameRate)}

	// Ghost on the right, programmed with radar knowledge (clean anchor).
	ghostTraj := make(geom.Trajectory, n)
	cx := sc.Radar.Position.X
	for i := range ghostTraj {
		f := float64(i) / float64(n-1)
		ghostTraj[i] = geom.Point{X: cx + 0.5 + 1.2*f, Y: 3 + 1.5*f}
	}
	rec, err := sys.Controller().ProgramForRadar(ghostTraj, sc.Radar, params.FrameRate, 0)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	frames, err := sc.CaptureCtx(ctx, 0, n, rng)
	if err != nil {
		t.Fatal(err)
	}
	detSeq, err := radar.NewProcessor(radar.DefaultConfig()).ProcessFrames(ctx, frames, sc.Radar)
	if err != nil {
		t.Fatal(err)
	}
	tracks := radar.TrackDetections(radar.TrackerConfig{}, detSeq)
	if len(tracks) < 2 {
		t.Fatalf("eavesdropper sees %d tracks, want >= 2 (human + ghost)", len(tracks))
	}

	legit := NewLegitSensor(sys.Tag().Config(), sc.Radar)
	humans, ghosts := legit.Filter(tracks, []reflector.GhostRecord{rec})
	if len(ghosts) == 0 {
		t.Fatal("legitimate sensor failed to identify the ghost")
	}
	if len(humans) == 0 {
		t.Fatal("legitimate sensor removed the real human too")
	}
	// The surviving human tracks must be near the human trajectory, not the
	// ghost's.
	for _, h := range humans {
		tr := h.Smoothed()
		if geom.MeanPointwiseError(tr, humanTraj) > geom.MeanPointwiseError(tr, ghostTraj) {
			t.Fatal("a ghost track survived filtering")
		}
	}
}

func TestLegitSensorKeepsUnmatchedTracks(t *testing.T) {
	tagCfg := reflector.DefaultConfig(geom.Point{X: 4, Y: 1}, 0)
	legit := NewLegitSensor(tagCfg, fmcw.Array{Position: geom.Point{X: 4.5, Y: 0}, Facing: 1})
	trk := &radar.Track{Confirmed: true}
	for i := 0; i < 20; i++ {
		trk.Points = append(trk.Points, radar.TimedPoint{
			Time: float64(i) * 0.05,
			Pos:  geom.Point{X: 2, Y: 2 + 0.05*float64(i)},
		})
	}
	humans, ghosts := legit.Filter([]*radar.Track{trk}, nil)
	if len(ghosts) != 0 || len(humans) != 1 {
		t.Fatal("track with no disclosures must be kept")
	}
}
