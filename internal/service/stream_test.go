package service

import (
	"context"
	"encoding/json"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rfprotect/internal/core"
	"rfprotect/internal/detect"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/parallel"
	"rfprotect/internal/pipeline"
	"rfprotect/internal/radar"
	"rfprotect/internal/scene"
)

// snapshotStage is the library reference for a room's event tracks: after
// each frame it records the full snapshot the final event carries (every
// reportable track, retired and live, scored) through Tracker.Tracks, the
// path that walks the whole archive.
type snapshotStage struct {
	trk   *pipeline.TrackStage
	det   *detect.TrackScorer
	snaps [][]TrackSpec
}

func (s *snapshotStage) Name() string { return "snapshot" }

func (s *snapshotStage) Process(ctx context.Context, it *pipeline.Item) error {
	if err := s.trk.Process(ctx, it); err != nil {
		return err
	}
	if it.RangeDoppler != nil {
		s.det.Observe(it.RangeDoppler, s.trk.Tracker())
	}
	var snap []TrackSpec
	for _, tr := range s.trk.Tracks() {
		snap = append(snap, trackSpec(tr, s.det.Score(tr)))
	}
	s.snaps = append(s.snaps, snap)
	return nil
}

// referenceSnapshots assembles cfg by hand exactly as newRoom does and
// returns the full track snapshot after every frame.
func referenceSnapshots(t *testing.T, cfg RoomConfig) [][]TrackSpec {
	t.Helper()
	env, err := roomByName(cfg.Room)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(core.SessionConfig{Room: env, NoMultipath: cfg.NoMultipath})
	if err != nil {
		t.Fatal(err)
	}
	sc := sess.Scene
	for _, h := range cfg.Humans {
		sc.Humans = append(sc.Humans, scene.NewHuman(h.trajectory(), h.rate(sc.Params.FrameRate)))
	}
	for _, g := range cfg.Ghosts {
		if _, err := sess.Ctl.ProgramForRadar(g.trajectory(), sc.Radar, g.rate(sc.Params.FrameRate), g.Start); err != nil {
			t.Fatal(err)
		}
	}
	plan := radar.PlanFrontEnd(radar.DefaultConfig(), sc.Params)
	pools := pipeline.NewPools(sc.Params)
	stages := pipeline.FrontEndStagesPlanned(plan, sc.Radar, pools)
	snap := &snapshotStage{det: detect.NewTrackScorer(detect.Config{}, sc.Radar)}
	if cfg.DopplerWindow > 0 {
		stages = append(stages, pipeline.NewDopplerPlanned(plan, cfg.DopplerWindow, 0, pools.Doppler))
		snap.trk = pipeline.NewTrackWithVelocity(radar.TrackerConfig{KeepVelocityHistory: true}, sc.Radar)
	} else {
		snap.trk = pipeline.NewTrack(radar.TrackerConfig{})
	}
	src := sc.Stream(0, cfg.Frames, rand.New(rand.NewSource(cfg.Seed))).UsePool(pools.Frames)
	if _, err := pipeline.New(src, append(stages, snap)...).UsePools(pools).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return snap.snaps
}

// TestStreamRebuildsFinalTracks pins the /stream contract on a room that
// retires tracks. Each per-frame event holds exactly the reportable live
// tracks plus the tracks that retired on that frame, marked retired; a
// consumer that starts from an empty map and applies every event rebuilds
// the final event's full track set bit for bit (IDs, points, verdicts,
// retired flags); and that set is the library's full snapshot. Events pass
// through their JSON encoding, as a stream consumer sees them.
func TestStreamRebuildsFinalTracks(t *testing.T) {
	const frames = 480
	cx := scene.NewScene(scene.HomeRoom(), fmcw.DefaultParams()).Radar.Position.X
	human, ghost := smokeTraj(cx, frames)
	// A second walker whose trajectory ends a third of the way in adds
	// track churn, so the room retires enough tracks to test.
	short, _ := smokeTraj(cx+1.5, frames/3)
	cfg := RoomConfig{
		ID: "rebuild", Seed: 3, Frames: frames, DopplerWindow: 8,
		Humans: []TrajSpec{{Points: human}, {Points: short}}, Ghosts: []TrajSpec{{Points: ghost}},
	}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	r, err := newRoom(cfg, 0, &shard{})
	if err != nil {
		t.Fatal(err)
	}
	// Subscribe before the runner starts, with room for every event, so
	// the stream has no gaps.
	sub := r.Subscribe(frames + 1)
	r.run(context.Background())
	roundTrip := func(ev Event) Event {
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		var out Event
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	snaps := referenceSnapshots(t, cfg)
	rebuilt := map[int]TrackSpec{}
	retiredBefore := map[int]bool{}
	k, retired := 0, 0
	for ev := range sub.ch {
		ev = roundTrip(ev)
		if ev.Frame != k {
			t.Fatalf("event %d carries frame %d", k, ev.Frame)
		}
		// The expected event: the full snapshot less the tracks that had
		// already retired before this frame.
		var want []TrackSpec
		for _, ts := range snaps[k] {
			if !retiredBefore[ts.ID] {
				want = append(want, ts)
			}
		}
		if len(ev.Tracks) != len(want) {
			t.Fatalf("frame %d: %d event tracks, want %d:\n got %+v\nwant %+v", k, len(ev.Tracks), len(want), ev.Tracks, want)
		}
		for i := range want {
			if ev.Tracks[i] != want[i] {
				t.Fatalf("frame %d track %d:\n got %+v\nwant %+v", k, i, ev.Tracks[i], want[i])
			}
		}
		for _, ts := range ev.Tracks {
			rebuilt[ts.ID] = ts
			if ts.Retired {
				retiredBefore[ts.ID] = true
				retired++
			}
		}
		k++
	}
	if k != frames {
		t.Fatalf("stream carried %d events, want %d", k, frames)
	}
	if retired < 5 {
		t.Fatalf("only %d tracks retired; the room is too short to test retirement records", retired)
	}

	final := roundTrip(r.FinalEvent())
	if !final.Final || final.Error != "" {
		t.Fatalf("final event %+v", final)
	}
	last := snaps[frames-1]
	if len(final.Tracks) != len(last) || len(rebuilt) != len(last) {
		t.Fatalf("final event has %d tracks, rebuilt stream %d, library snapshot %d", len(final.Tracks), len(rebuilt), len(last))
	}
	for i, ts := range final.Tracks {
		if ts != last[i] {
			t.Fatalf("final track %d differs from the library snapshot:\n got %+v\nwant %+v", i, ts, last[i])
		}
		if rebuilt[ts.ID] != ts {
			t.Fatalf("track %d rebuilt from the stream as %+v, final event has %+v", ts.ID, rebuilt[ts.ID], ts)
		}
	}
}

// TestPushRejectsWrongShape pushes a nil frame and a frame of 5-sample rows
// into a fresh ingest room: both are refused with ErrFrameShape, which the
// API maps to 400, and the room goes on to process a good frame.
func TestPushRejectsWrongShape(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewManager(ctx, 1)
	r, err := m.CreateRoom(RoomConfig{ID: "shape"})
	if err != nil {
		t.Fatal(err)
	}
	p := fmcw.DefaultParams()
	short := p
	short.SampleRate = 5 / p.ChirpDuration
	if n := short.SamplesPerChirp(); n != 5 {
		t.Fatalf("short frame has %d samples per row, want 5", n)
	}
	for name, f := range map[string]*fmcw.Frame{"nil": nil, "5-sample rows": fmcw.NewFrame(short, 0)} {
		if err := r.Push(context.Background(), f); err != ErrFrameShape {
			t.Fatalf("push %s frame: err %v, want ErrFrameShape", name, err)
		}
	}
	rec := httptest.NewRecorder()
	writeError(rec, ErrFrameShape)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("ErrFrameShape maps to status %d, want 400", rec.Code)
	}
	if err := r.Push(context.Background(), r.pools.Frames.Get(0)); err != nil {
		t.Fatalf("push good frame: %v", err)
	}
	st, err := m.CloseRoom(context.Background(), "shape")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != stateDone || st.Frames != 1 {
		t.Fatalf("room %q with %d frames after close, want done with 1", st.State, st.Frames)
	}
}

// fanOutPanicStage panics inside a fan-out of width 2 whose two indices
// rendezvous first, so the panic is raised on a pool helper as well as on
// the runner.
type fanOutPanicStage struct{}

func (fanOutPanicStage) Name() string { return "fan-out-panic" }

func (fanOutPanicStage) Process(ctx context.Context, it *pipeline.Item) error {
	var arrived atomic.Int32
	both := make(chan struct{})
	return parallel.ForEachCtx(ctx, 2, 2, func(i int) {
		if arrived.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
		case <-time.After(5 * time.Second):
		}
		panic("fan-out index failed")
	})
}

// TestRoomPanicFailsOnlyItsRoom makes one ingest room's runner panic: in
// the front end (a wrong-shape frame sent straight into the queue, past
// Push's check), inside step with trkMu held, and inside a stage's fan-out,
// where the panic is raised on a pool helper. That room fails, with the
// one-line panic as its error and on its final event, and the panic's stack
// in the process log; its subscriber closes, its intake refuses frames, and
// its handlers still answer. The healthy room on the same manager processes
// every frame, and Drain joins both runners with no goroutine left behind.
func TestRoomPanicFailsOnlyItsRoom(t *testing.T) {
	cases := []struct {
		name string
		// stage, if set, replaces the bad room's stage chain (ahead of its
		// emit stage) before its runner starts.
		stage pipeline.Stage
		// poison makes the room's runner panic and returns a function that
		// undoes whatever it changed on the room once the runner is done.
		poison func(t *testing.T, r *Room) (undo func())
		// frame is a function of the panicking goroutine's stack.
		frame string
	}{
		{
			// A frame of the wrong shape, sent past Push's check, panics in
			// the front end before the emit stage takes trkMu.
			name: "front-end",
			poison: func(t *testing.T, r *Room) func() {
				if err := r.Push(context.Background(), r.pools.Frames.Get(0)); err != nil {
					t.Fatal(err)
				}
				p := fmcw.DefaultParams()
				p.NumAntennas = 2
				r.q <- fmcw.NewFrame(p, 0.05)
				return func() {}
			},
			frame: "fmcw.(*Differencer).Step",
		},
		{
			// A track stage without a tracker panics inside step with trkMu
			// held; the handlers must still get the lock afterwards. The
			// swap happens before the push that hands the runner its first
			// frame, and the undo after the runner is done, so neither races
			// the runner.
			name: "under-trkMu",
			poison: func(t *testing.T, r *Room) func() {
				orig := r.trk
				r.trk = &pipeline.TrackStage{}
				if err := r.Push(context.Background(), r.pools.Frames.Get(0)); err != nil {
					t.Fatal(err)
				}
				return func() { r.trk = orig }
			},
			frame: "service.(*Room).step",
		},
		{
			// The fan-out's fn frame is only on the stack the panic was
			// raised on, so finding it in the log shows that stack is kept.
			name:  "in-fan-out",
			stage: fanOutPanicStage{},
			poison: func(t *testing.T, r *Room) func() {
				if err := r.Push(context.Background(), r.pools.Frames.Get(0)); err != nil {
					t.Fatal(err)
				}
				return func() {}
			},
			frame: "service.fanOutPanicStage.Process.func1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var logged strings.Builder
			log.SetOutput(&logged)
			defer log.SetOutput(os.Stderr)
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			m := NewManager(ctx, 1)
			bad, err := newRoom(RoomConfig{ID: "bad", QueueDepth: 64}, 0, m.shards[0])
			if err != nil {
				t.Fatal(err)
			}
			if tc.stage != nil {
				bad.pipe = pipeline.New(&queueSource{r: bad}, tc.stage, &emitStage{r: bad}).UsePools(bad.pools)
			}
			if err := m.start(bad); err != nil {
				t.Fatal(err)
			}
			good, err := m.CreateRoom(RoomConfig{ID: "good"})
			if err != nil {
				t.Fatal(err)
			}
			sub := bad.Subscribe(4)
			undo := tc.poison(t, bad)
			select {
			case <-bad.done:
			case <-time.After(10 * time.Second):
				t.Fatal("the panicking room never finished")
			}
			undo()
			for range sub.ch {
			}
			if !strings.Contains(logged.String(), tc.frame) {
				t.Fatalf("log %q lacks the panic's stack (want a %s frame)", logged.String(), tc.frame)
			}
			dumped := make(chan struct{})
			go func() {
				bad.TrackDumps()
				close(dumped)
			}()
			select {
			case <-dumped:
			case <-time.After(5 * time.Second):
				t.Fatal("TrackDumps blocked on the failed room")
			}
			st := bad.Status()
			if st.State != stateFailed || !strings.Contains(st.Error, "panicked") || strings.Contains(st.Error, "\n") {
				t.Fatalf("bad room: state %q error %q, want failed with the one-line panic", st.State, st.Error)
			}
			if fe := bad.FinalEvent(); !fe.Final || fe.Error != st.Error {
				t.Fatalf("final event %+v, want final with error %q", fe, st.Error)
			}
			f := bad.pools.Frames.Get(0)
			if err := bad.Push(context.Background(), f); err != ErrDraining {
				t.Fatalf("push into the failed room: err %v, want ErrDraining", err)
			}
			bad.pools.Frames.Put(f)

			const n = 8
			for i := 0; i < n; i++ {
				if err := good.Push(context.Background(), good.pools.Frames.Get(float64(i)*0.05)); err != nil {
					t.Fatal(err)
				}
			}
			gst, err := m.CloseRoom(context.Background(), "good")
			if err != nil {
				t.Fatal(err)
			}
			if gst.State != stateDone || gst.Frames != n {
				t.Fatalf("healthy room: state %q frames %d, want done/%d", gst.State, gst.Frames, n)
			}
			if err := m.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			waitLeakFree(t, baseline)
		})
	}
}

func TestMetricsScrapeDoesNotHoldShardLock(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewManager(ctx, 1)
	held, err := m.CreateRoom(RoomConfig{ID: "held"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateRoom(RoomConfig{ID: "other"}); err != nil {
		t.Fatal(err)
	}
	held.trkMu.Lock()
	scraped := make(chan string)
	go func() {
		rec := httptest.NewRecorder()
		m.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		scraped <- rec.Body.String()
	}()
	// Look the other room up repeatedly while the scrape waits on the held
	// room, long enough for it to reach that wait.
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
		found := make(chan error, 1)
		go func() {
			_, err := m.Room("other")
			found <- err
		}()
		select {
		case err := <-found:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			held.trkMu.Unlock()
			t.Fatal("Manager.Room blocked behind a /metrics scrape")
		}
		time.Sleep(5 * time.Millisecond)
	}
	held.trkMu.Unlock()
	if body := <-scraped; !strings.Contains(body, `rfprotect_rooms{shard="0"} 2`) {
		t.Fatalf("scrape after unlock:\n%s", body)
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
