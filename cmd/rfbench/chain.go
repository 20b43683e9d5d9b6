package main

// This file is the harness's only caller of the pipeline, radar, detect,
// core and scene constructors. Everything else drives the system through
// service.Manager and its HTTP handler, so a change to how the library is
// assembled breaks at most this file, never the end-to-end path.

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"rfprotect/internal/core"
	"rfprotect/internal/detect"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/pipeline"
	"rfprotect/internal/radar"
	"rfprotect/internal/scene"
	"rfprotect/internal/service"
)

// stageLayers names the layer of each front-end stage, keyed by the
// pipeline stage's Name.
var stageLayers = map[string]layer{
	"background-subtract": lSubtract,
	"range-angle":         lRangeAngle,
	"peak-extract":        lPeak,
	"range-doppler":       lDoppler,
}

// envRoom is the scene of a service room environment name.
func envRoom(name string) scene.Room {
	if name == "office" {
		return scene.OfficeRoom()
	}
	return scene.HomeRoom()
}

// newSession assembles a room's session the way service.newRoom does:
// environment, then humans, then ghosts programmed against the radar.
func newSession(cfg service.RoomConfig) (*core.Session, error) {
	sess, err := core.NewSession(core.SessionConfig{Room: envRoom(cfg.Room), NoMultipath: cfg.NoMultipath})
	if err != nil {
		return nil, err
	}
	sc := sess.Scene
	for _, h := range cfg.Humans {
		sc.Humans = append(sc.Humans, scene.NewHuman(append(geom.Trajectory(nil), h.Points...), rateOr(h.Rate)))
	}
	for _, g := range cfg.Ghosts {
		if _, err := sess.Ctl.ProgramForRadar(append(geom.Trajectory(nil), g.Points...), sc.Radar, rateOr(g.Rate), g.Start); err != nil {
			return nil, err
		}
	}
	return sess, nil
}

func rateOr(r float64) float64 {
	if r == 0 {
		return frameRate
	}
	return r
}

// truth is where each entity of a room really is at each frame: humans[i][k]
// and ghost[k] for frame k. The ghost's position is where the radar should
// see it (the tag's disclosure log mapped through the radar geometry), and
// it is absent once its program ends.
type truth struct {
	humans [][]geom.Point
	ghost  []geom.Point
}

// roomTruth is the ground truth of a synthetic room over its frames.
func roomTruth(cfg service.RoomConfig, frames int) (truth, error) {
	sess, err := newSession(cfg)
	if err != nil {
		return truth{}, err
	}
	var tr truth
	for _, h := range sess.Scene.Humans {
		pos := make([]geom.Point, frames)
		for k := range pos {
			pos[k] = h.PositionAt(ingestTime(k))
		}
		tr.humans = append(tr.humans, pos)
	}
	for _, rec := range sess.Ctl.Records() {
		obs := rec.ExpectedObservation(sess.Tag.Config(), sess.Scene.Radar)
		for k := 0; k < frames; k++ {
			i := int((ingestTime(k) - rec.Start) / rec.Tick)
			if i < 0 || i >= len(obs) {
				break
			}
			tr.ghost = append(tr.ghost, obs[i])
		}
	}
	return tr, nil
}

// loopFrames is the ingest workloads' pre-synthesized capture: the frames,
// their ground truth, and the mean number of returns per frame.
type loopFrames struct {
	frames  []*fmcw.Frame
	truth   truth
	returns float64
}

// synthLoop synthesizes the ingest loop from its scene.
func synthLoop(ls loopScene) (loopFrames, error) {
	cfg := service.RoomConfig{
		Room:   "home",
		Humans: []service.TrajSpec{{Points: ls.human}},
		Ghosts: []service.TrajSpec{{Points: ls.ghost}},
	}
	sess, err := newSession(cfg)
	if err != nil {
		return loopFrames{}, err
	}
	frames, err := sess.Scene.CaptureCtx(context.Background(), 0, ingestLoop, rand.New(rand.NewSource(ls.seed)))
	if err != nil {
		return loopFrames{}, err
	}
	tr, err := roomTruth(cfg, ingestLoop)
	if err != nil {
		return loopFrames{}, err
	}
	return loopFrames{frames: frames, truth: tr, returns: meanReturns(sess.Scene, ingestLoop)}, nil
}

// meanReturns counts the returns a scene synthesizes per frame over its
// first n frames: every reflection plus, in speckled rooms, the diffuse
// companion of each one strong enough to get one.
func meanReturns(sc *scene.Scene, n int) float64 {
	var rets []fmcw.Return
	total := 0
	for k := 0; k < n; k++ {
		rets = sc.AppendReturnsAt(rets[:0], ingestTime(k))
		total += len(rets)
		if sc.Room.Speckle > 0 {
			for _, r := range rets {
				if r.Amplitude >= 1e-4 {
					total++
				}
			}
		}
	}
	return float64(total) / float64(n)
}

// mirror is a library-side replica of one daemon room: the session, shared
// plans, pools, front end, Doppler stage, tracker and spoof scorer that
// service.newRoom assembles, fed the same frames. Its tracks must be
// bit-identical to the room's TrackDumps.
type mirror struct {
	pipe *pipeline.Pipeline
	emit *emitStage
	sc   *scene.Scene
}

// newSyntheticMirror mirrors a synthetic room over its first frames frames.
func newSyntheticMirror(cfg service.RoomConfig, frames int, rec *recorder) (*mirror, error) {
	return newMirror(cfg, rec, func(sc *scene.Scene, pools *pipeline.Pools) pipeline.Source {
		return sc.Stream(0, frames, rand.New(rand.NewSource(cfg.Seed))).UsePool(pools.Frames)
	})
}

// newIngestMirror mirrors ingest room r over the first frames frames it was
// sent: the same samples at the same times, copied into pooled frames the
// way the ingest handler fills them.
func newIngestMirror(loop []*fmcw.Frame, r, frames int, rec *recorder) (*mirror, error) {
	return newMirror(ingestRoomConfig(r), rec, func(sc *scene.Scene, pools *pipeline.Pools) pipeline.Source {
		return &replaySource{loop: loop, room: r, n: frames, pool: pools.Frames}
	})
}

func newMirror(cfg service.RoomConfig, rec *recorder, source func(*scene.Scene, *pipeline.Pools) pipeline.Source) (*mirror, error) {
	sess, err := newSession(cfg)
	if err != nil {
		return nil, err
	}
	sc := sess.Scene
	plan := radar.CompileFrontEndPlan(radar.DefaultConfig(), sc.Params)
	sc.UseSynthPlan(fmcw.CompileSynthPlan(sc.Params))
	pools := pipeline.NewPools(sc.Params)
	stages := pipeline.FrontEndStagesPlanned(plan, sc.Radar, pools)
	var trk *pipeline.TrackStage
	if cfg.DopplerWindow > 0 {
		stages = append(stages, pipeline.NewDopplerPlanned(plan, cfg.DopplerWindow, 0, pools.Doppler))
		trk = pipeline.NewTrackWithVelocity(radar.TrackerConfig{KeepVelocityHistory: true}, sc.Radar)
	} else {
		trk = pipeline.NewTrack(radar.TrackerConfig{})
	}
	emit := &emitStage{trk: trk, det: detect.NewTrackScorer(detect.Config{}, sc.Radar), rec: rec}
	src := source(sc, pools)
	if rec != nil {
		if src, stages, err = rec.wrap(src, stages); err != nil {
			return nil, err
		}
	}
	stages = append(stages, emit)
	return &mirror{pipe: pipeline.New(src, stages...).UsePools(pools), emit: emit, sc: sc}, nil
}

// run drains the mirror's source through its chain.
func (m *mirror) run() error {
	_, err := m.pipe.Run(context.Background())
	return err
}

// tracks exports the mirror's confirmed tracks exactly as the room's
// TrackDumps does.
func (m *mirror) tracks() []service.TrackDump {
	trs := m.emit.trk.Tracks()
	out := make([]service.TrackDump, len(trs))
	for i, tr := range trs {
		sc := m.emit.det.Score(tr)
		d := service.TrackDump{
			ID:             tr.ID,
			Confirmed:      tr.Confirmed,
			RadialVelocity: tr.RadialVelocity,
			HasVelocity:    tr.HasVelocity,
			SpoofHarmonic:  sc.Harmonic,
			SpoofKinematic: sc.Kinematic,
			Suspicion:      sc.Suspicion,
			ScoredFrames:   sc.Frames,
			Suspect:        sc.Flagged(),
			Points:         make([]service.TimedPoint, len(tr.Points)),
		}
		for j, p := range tr.Points {
			d.Points[j] = service.TimedPoint{Time: p.Time, X: p.Pos.X, Y: p.Pos.Y}
		}
		out[i] = d
	}
	return out
}

// emitStage mirrors the room's sink stage: advance the tracker, feed the
// spoof scorer any range–Doppler map, then take the per-frame snapshot the
// room builds its event from (every confirmed track, scored). Traced, it
// records those three steps as the radar.track, detect.score and
// service.snapshot spans, and counts detections and live tracks.
type emitStage struct {
	trk *pipeline.TrackStage
	det *detect.TrackScorer
	rec *recorder
	// suspicion sums every snapshot score, so the scoring work has a use.
	suspicion float64
}

func (s *emitStage) Name() string { return "track-emit" }

func (s *emitStage) Process(ctx context.Context, it *pipeline.Item) error {
	rec := s.rec
	t0 := rec.now()
	if err := s.trk.Process(ctx, it); err != nil {
		return err
	}
	t1 := rec.add(lTrack, it.Index, t0)
	if it.RangeDoppler != nil {
		s.det.Observe(it.RangeDoppler, s.trk.Tracker())
		t1 = rec.add(lScore, it.Index, t1)
	}
	for _, tr := range s.trk.Tracks() {
		s.suspicion += s.det.Score(tr).Suspicion
	}
	rec.add(lSnapshot, it.Index, t1)
	if rec != nil {
		rec.dets += len(it.Detections)
		s.trk.Tracker().ForEachActive(rec.countActive)
	}
	return nil
}

// replaySource feeds ingest room r's frames from the loop.
type replaySource struct {
	loop    []*fmcw.Frame
	room, n int
	k       int
	pool    *fmcw.FramePool
}

func (s *replaySource) Next(ctx context.Context) (*fmcw.Frame, error) {
	if s.k >= s.n {
		return nil, io.EOF
	}
	f := s.pool.Get(ingestTime(s.k))
	src := s.loop[loopIndex(s.room, s.k)]
	if !f.SameShape(src) {
		return nil, fmt.Errorf("rfbench: loop frame shape differs from the room's")
	}
	for a := range f.Data {
		copy(f.Data[a], src.Data[a])
	}
	s.k++
	return f, nil
}
