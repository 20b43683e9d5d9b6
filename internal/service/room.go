package service

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"rfprotect/internal/core"
	"rfprotect/internal/detect"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/parallel"
	"rfprotect/internal/pipeline"
	"rfprotect/internal/radar"
	"rfprotect/internal/scene"
)

// Room states, as reported by RoomStatus.State.
const (
	stateRunning  = "running"
	stateDraining = "draining"
	stateDone     = "done"
	stateFailed   = "failed"
)

// Room hosts one tenant session: a core.Session with its own buffer pools
// and pooled stage chain over the shared front-end plan, driven by a single
// runner goroutine owned by the Manager. All cross-goroutine access (status,
// track dumps, ingest pushes, subscriptions) goes through the Room's own
// synchronization; the pipeline itself stays single-threaded and
// bit-identical to the library path.
type Room struct {
	ID  string
	cfg RoomConfig

	sess  *core.Session
	pools *pipeline.Pools
	pipe  *pipeline.Pipeline
	trk   *pipeline.TrackStage
	// det accumulates spoof-suspicion evidence against the room's tracks.
	// Guarded by trkMu like the tracker itself: the emit stage feeds it on
	// the runner goroutine, HTTP handlers score through it.
	det *detect.TrackScorer

	sh       *shard
	shardIdx int
	cancel   context.CancelFunc // hard-cancels the runner (set by the Manager)

	// stop ends the room's source: a synthetic source EOFs at the next
	// frame boundary, an ingest queue closes (its buffered frames still
	// drain through the pipeline). done closes when the runner has
	// finished and the final state is readable.
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	// Ingest queue (ingest mode only). qMu serializes enqueues against the
	// drain-time close: pushes are non-blocking sends under the read lock,
	// so close(q) under the write lock can never race a send in flight —
	// every Push that returned nil has its frame in the buffer, and the
	// closed channel hands those frames to the source before io.EOF. That
	// is the no-dropped-in-flight-frames drain guarantee.
	q chan *fmcw.Frame
	//rfvet:lockrank 50
	qMu     sync.RWMutex
	qClosed bool
	space   chan struct{} // capacity 1: pulsed when the source frees a slot

	framesDone atomic.Int64
	dropped    atomic.Int64

	// Runner-owned event state, touched only by the emit stage on the
	// runner goroutine. retiredSeen is a cursor into the tracker's
	// append-only Done archive: the tracks past it retired on the frame
	// being emitted. eventTracks is the per-frame selection scratch.
	retiredSeen int
	eventTracks []*radar.Track

	// trkMu guards the tracker: the emit stage mutates it on the runner
	// goroutine while status/track handlers read it from HTTP goroutines.
	// It is the leaf of the lock hierarchy — nothing is acquired under it.
	//
	//rfvet:lockrank 70
	trkMu sync.Mutex

	// ghostMu serializes the controller's disclosure log across handlers.
	//
	//rfvet:lockrank 60
	ghostMu sync.Mutex

	//rfvet:lockrank 40
	mu       sync.Mutex
	state    string
	runErr   error
	lastTime float64
	subs     map[*subscriber]struct{}
	finished bool
}

// newRoom assembles a room exactly as a library caller would: session,
// humans, ghosts, shared plan, pools, planned front end, optional Doppler,
// tracker — in that order, so a synthetic room's output is bit-identical to
// the same assembly run by hand. Rooms of one shape share the process-wide
// front-end and synthesis plans (radar.PlanFrontEnd, fmcw.PlanSynth).
func newRoom(cfg RoomConfig, shardIdx int, sh *shard) (*Room, error) {
	env, err := roomByName(cfg.Room)
	if err != nil {
		return nil, err
	}
	sess, err := core.NewSession(core.SessionConfig{Room: env, NoMultipath: cfg.NoMultipath})
	if err != nil {
		return nil, err
	}
	sc := sess.Scene
	if err := checkGhostTicks(0, sc.Params.FrameRate, sess.Tag.Config().SyncGranularity, cfg.Ghosts...); err != nil {
		return nil, err
	}
	for _, h := range cfg.Humans {
		sc.Humans = append(sc.Humans, scene.NewHuman(h.trajectory(), h.rate(sc.Params.FrameRate)))
	}
	for _, g := range cfg.Ghosts {
		if _, err := sess.Ctl.ProgramForRadar(g.trajectory(), sc.Radar, g.rate(sc.Params.FrameRate), g.Start); err != nil {
			return nil, err
		}
	}

	r := &Room{
		ID:       cfg.ID,
		cfg:      cfg,
		sess:     sess,
		sh:       sh,
		shardIdx: shardIdx,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		state:    stateRunning,
		subs:     make(map[*subscriber]struct{}),
	}

	plan := radar.PlanFrontEnd(radar.DefaultConfig(), sc.Params)
	r.pools = pipeline.NewPools(sc.Params)
	stages := pipeline.FrontEndStagesPlanned(plan, sc.Radar, r.pools)
	if cfg.DopplerWindow > 0 {
		stages = append(stages, pipeline.NewDopplerPlanned(plan, cfg.DopplerWindow, 0, r.pools.Doppler))
		// Velocity history feeds the kinematic Doppler-consistency check.
		r.trk = pipeline.NewTrackWithVelocity(radar.TrackerConfig{KeepVelocityHistory: true}, sc.Radar)
	} else {
		r.trk = pipeline.NewTrack(radar.TrackerConfig{})
	}
	r.det = detect.NewTrackScorer(detect.Config{}, sc.Radar)
	stages = append(stages, &emitStage{r: r})

	var src pipeline.Source
	if cfg.Frames > 0 {
		fs := sc.Stream(0, cfg.Frames, rand.New(rand.NewSource(cfg.Seed))).UsePool(r.pools.Frames)
		src = pipeline.Source(fs)
		if cfg.FrameRate > 0 {
			src = pipeline.NewPaced(src, cfg.FrameRate)
		}
		src = &drainSource{src: src, stop: r.stop}
	} else {
		r.q = make(chan *fmcw.Frame, cfg.QueueDepth)
		r.space = make(chan struct{}, 1)
		src = &queueSource{r: r}
	}
	r.pipe = pipeline.New(src, stages...).UsePools(r.pools)
	return r, nil
}

// Mode reports "synthetic" or "ingest".
func (r *Room) Mode() string {
	if r.cfg.Frames > 0 {
		return "synthetic"
	}
	return "ingest"
}

// run drives the room's pipeline to completion. It is the runner
// goroutine's body; the Manager joins it through its WaitGroup. A failed
// room stops its intake, so a blocked or later Push returns ErrDraining
// instead of waiting on a queue nobody drains.
func (r *Room) run(ctx context.Context) {
	err := r.runPipeline(ctx)
	if err != nil {
		r.beginDrain()
	}
	r.finish(err)
}

// runPipeline runs the room's pipeline on the calling goroutine and turns
// a panic in any of its stages into the room's error, so a broken frame or
// stage fails its own room rather than the whole process. That includes a
// panic raised on a pool helper inside a stage's fan-out, which
// parallel.ForEachCtx re-raises here as a *parallel.Panic. The error clients
// see is one line; the panic's stack goes to the process log, followed by
// the stack of the goroutine a fan-out panic was raised on.
func (r *Room) runPipeline(ctx context.Context) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("service: room %s panicked: %v", r.ID, p)
			stack := debug.Stack()
			if pe, ok := p.(*parallel.Panic); ok {
				stack = fmt.Appendf(stack, "raised in a fan-out on:\n%s", pe.Stack)
			}
			log.Printf("%v\n%s", err, stack)
		}
	}()
	_, err = r.pipe.Run(ctx)
	return err
}

// drainSource ends a synthetic stream at the next frame boundary once the
// room drains: the frame in flight always completes every stage, so a drain
// never abandons partial work.
type drainSource struct {
	src  pipeline.Source
	stop chan struct{}
}

func (s *drainSource) Next(ctx context.Context) (*fmcw.Frame, error) {
	select {
	case <-s.stop:
		return nil, io.EOF
	default:
	}
	return s.src.Next(ctx)
}

// queueSource feeds an ingest room from its bounded queue. A closed queue
// (drain) still yields its buffered frames before io.EOF.
type queueSource struct{ r *Room }

func (s *queueSource) Next(ctx context.Context) (*fmcw.Frame, error) {
	select {
	case f, ok := <-s.r.q:
		if !ok {
			return nil, io.EOF
		}
		s.r.signalSpace()
		return f, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// signalSpace pulses the space channel so one blocked pusher retries.
func (r *Room) signalSpace() {
	select {
	case r.space <- struct{}{}:
	default:
	}
}

// Push enqueues one frame into an ingest room. Ownership of f transfers to
// the room only on a nil return; on any error the caller keeps f (and
// should recycle it). The full-queue policy is the room's: block until
// space frees (backpressure, the default) or fail fast with ErrBacklogged
// (load-shedding, Shed: true). Pushing to a synthetic room returns
// ErrNotIngest; pushing after a drain began returns ErrDraining; a nil
// frame or one whose shape differs from the room's returns ErrFrameShape.
func (r *Room) Push(ctx context.Context, f *fmcw.Frame) error {
	if r.q == nil {
		return ErrNotIngest
	}
	if !r.pools.Frames.Fits(f) {
		return ErrFrameShape
	}
	for {
		r.qMu.RLock()
		if r.qClosed {
			r.qMu.RUnlock()
			return ErrDraining
		}
		select {
		case r.q <- f:
			r.qMu.RUnlock()
			return nil
		default:
		}
		r.qMu.RUnlock()
		if r.cfg.Shed {
			r.dropped.Add(1)
			r.sh.dropped.Add(1)
			return ErrBacklogged
		}
		select {
		case <-r.space:
			// A slot freed (or a stale pulse): retry the enqueue.
		case <-r.stop:
			return ErrDraining
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// beginDrain stops the room's intake exactly once: synthetic sources EOF at
// the next frame, ingest queues close (buffered frames still process), and
// the state flips to draining until the runner finishes.
func (r *Room) beginDrain() {
	r.stopOnce.Do(func() {
		r.mu.Lock()
		if r.state == stateRunning {
			r.state = stateDraining
		}
		r.mu.Unlock()
		close(r.stop)
		if r.q != nil {
			r.qMu.Lock()
			r.qClosed = true
			close(r.q)
			r.qMu.Unlock()
		}
	})
}

// emitStage is the room's sink stage: it advances the tracker and the spoof
// scorer under trkMu (HTTP handlers read the same tracker and scorer),
// counts the frame, and broadcasts the frame's event to every subscriber.
type emitStage struct{ r *Room }

func (s *emitStage) Name() string { return "track-emit" }

func (s *emitStage) Process(ctx context.Context, it *pipeline.Item) error {
	tracks, err := s.r.step(ctx, it)
	if err != nil {
		return err
	}
	s.r.observe(it, tracks)
	return nil
}

// step advances the tracker and the scorer by one frame, moves the
// retirement cursor past the tracks retired on it, and returns the frame's
// event tracks: the reportable live tracks plus the newly retired ones,
// scored and ordered by ID. Only those few tracks are read; the archive is
// never walked. trkMu is released by defer so a panicking stage cannot
// leave it held for the handlers that read the failed room.
func (r *Room) step(ctx context.Context, it *pipeline.Item) ([]TrackSpec, error) {
	r.trkMu.Lock()
	defer r.trkMu.Unlock()
	if err := r.trk.Process(ctx, it); err != nil {
		return nil, err
	}
	tr := r.trk.Tracker()
	if it.RangeDoppler != nil {
		r.det.Observe(it.RangeDoppler, tr)
	}
	done := tr.Done()
	sel := append(r.eventTracks[:0], done[r.retiredSeen:]...)
	r.retiredSeen = len(done)
	tr.ForEachActive(func(t *radar.Track) {
		if tr.Reportable(t) {
			sel = append(sel, t)
		}
	})
	r.eventTracks = sel
	if len(sel) == 0 {
		return nil, nil
	}
	slices.SortFunc(sel, func(a, b *radar.Track) int { return cmp.Compare(a.ID, b.ID) })
	out := make([]TrackSpec, len(sel))
	for i, t := range sel {
		out[i] = trackSpec(t, r.det.Score(t))
	}
	return out, nil
}

// observe counts the frame, builds its event from its detections and event
// tracks, and offers it to each subscriber. Runs on the runner goroutine
// only.
func (r *Room) observe(it *pipeline.Item, tracks []TrackSpec) {
	r.framesDone.Add(1)
	r.sh.frames.Add(1)
	ev := Event{Room: r.ID, Frame: it.Index, Time: it.Frame.Time, Tracks: tracks}
	if it.HasDets {
		ev.Detections = make([]DetectionSpec, len(it.Detections))
		for i, d := range it.Detections {
			ev.Detections[i] = DetectionSpec{Range: d.Range, AoA: d.AoA, Power: d.Power, X: d.Pos.X, Y: d.Pos.Y}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lastTime = it.Frame.Time
	for sub := range r.subs {
		select {
		case sub.ch <- ev:
		default:
			// Slow consumer: drop this event rather than stall the room —
			// output-side load-shedding. The count is observable per shard.
			sub.dropped.Add(1)
			r.sh.eventsDropped.Add(1)
		}
	}
}

// finish records the terminal state and closes every subscriber stream.
// Subscribers observe the closure and fetch the final snapshot themselves
// (FinalEvent), which is immutable from here on.
func (r *Room) finish(err error) {
	r.mu.Lock()
	if err != nil {
		r.state = stateFailed
		r.runErr = err
	} else {
		r.state = stateDone
	}
	r.finished = true
	subs := r.subs
	r.subs = nil
	r.mu.Unlock()
	for sub := range subs {
		close(sub.ch)
	}
	close(r.done)
}

// subscriber is one NDJSON stream consumer: a bounded event buffer that
// sheds (with a count) instead of backpressuring the room.
type subscriber struct {
	ch      chan Event
	dropped atomic.Int64
}

// Subscribe registers a stream consumer with the given buffer (<= 0 means
// 16). If the room has already finished, the returned channel is closed
// immediately — the consumer goes straight to FinalEvent.
func (r *Room) Subscribe(buf int) *subscriber {
	if buf <= 0 {
		buf = 16
	}
	sub := &subscriber{ch: make(chan Event, buf)}
	r.mu.Lock()
	if r.finished {
		r.mu.Unlock()
		close(sub.ch)
		return sub
	}
	r.subs[sub] = struct{}{}
	r.mu.Unlock()
	return sub
}

// Unsubscribe detaches a consumer. Safe after finish (the map is gone).
func (r *Room) Unsubscribe(sub *subscriber) {
	r.mu.Lock()
	if r.subs != nil {
		delete(r.subs, sub)
	}
	r.mu.Unlock()
}

// trackSpecs snapshots every reportable track, retired and live, with its
// latest point and spoof-suspicion score: the final event's full set.
func (r *Room) trackSpecs() []TrackSpec {
	r.trkMu.Lock()
	defer r.trkMu.Unlock()
	trs := r.trk.Tracks()
	if len(trs) == 0 {
		return nil
	}
	out := make([]TrackSpec, len(trs))
	for i, tr := range trs {
		out[i] = trackSpec(tr, r.det.Score(tr))
	}
	return out
}

// TrackDumps exports every confirmed track at full resolution, scored.
func (r *Room) TrackDumps() []TrackDump {
	r.trkMu.Lock()
	defer r.trkMu.Unlock()
	trs := r.trk.Tracks()
	out := make([]TrackDump, len(trs))
	for i, tr := range trs {
		out[i] = trackDump(tr, r.det.Score(tr))
	}
	return out
}

// SuspectTracks counts confirmed tracks whose suspicion crosses the default
// thresholds — the per-room value behind the /metrics gauge.
func (r *Room) SuspectTracks() int {
	r.trkMu.Lock()
	defer r.trkMu.Unlock()
	return r.suspectTracksLocked(r.trk.Tracks())
}

// suspectTracksLocked counts the flagged tracks of trs, a Tracks() result
// the caller took under trkMu and still holds it for.
func (r *Room) suspectTracksLocked(trs []*radar.Track) int {
	n := 0
	for _, tr := range trs {
		if r.det.Score(tr).Flagged() {
			n++
		}
	}
	return n
}

// FinalEvent is the room's closing stream line: the terminal snapshot sent
// after the event channel closes.
func (r *Room) FinalEvent() Event {
	r.mu.Lock()
	ev := Event{
		Room:  r.ID,
		Frame: int(r.framesDone.Load()) - 1,
		Time:  r.lastTime,
		Final: true,
	}
	if r.runErr != nil {
		ev.Error = r.runErr.Error()
	}
	r.mu.Unlock()
	ev.Tracks = r.trackSpecs()
	return ev
}

// QueueDepth reports the current ingest backlog (0 for synthetic rooms).
func (r *Room) QueueDepth() int {
	if r.q == nil {
		return 0
	}
	return len(r.q)
}

// Status snapshots the room for the API.
func (r *Room) Status() RoomStatus {
	r.mu.Lock()
	state := r.state
	errStr := ""
	if r.runErr != nil {
		errStr = r.runErr.Error()
	}
	r.mu.Unlock()
	st := RoomStatus{
		ID:         r.ID,
		State:      state,
		Mode:       r.Mode(),
		Shard:      r.shardIdx,
		Frames:     int(r.framesDone.Load()),
		QueueDepth: r.QueueDepth(),
		Dropped:    r.dropped.Load(),
		Error:      errStr,
	}
	r.trkMu.Lock()
	trs := r.trk.Tracks()
	st.Tracks = len(trs)
	st.Suspects = r.suspectTracksLocked(trs)
	r.trkMu.Unlock()
	return st
}

// ProgramGhost appends a ghost program to the room's tag and disclosure
// log and returns its record, indexed under the same lock that appended it
// so concurrent programs each learn their own index. Synthetic rooms
// synthesize from the tag on the runner goroutine, so programming one
// mid-capture would race the synthesis — it is rejected with ErrBusy until
// the room finishes. Ingest rooms never synthesize; their tag exists for
// the disclosure workflow and accepts programs any time.
func (r *Room) ProgramGhost(spec TrajSpec) (GhostStatus, error) {
	if r.Mode() == "synthetic" {
		r.mu.Lock()
		running := !r.finished
		r.mu.Unlock()
		if running {
			return GhostStatus{}, ErrBusy
		}
	}
	frameRate := r.sess.Scene.Params.FrameRate
	r.ghostMu.Lock()
	defer r.ghostMu.Unlock()
	held := 0
	for _, rec := range r.sess.Ctl.Records() {
		held += len(rec.Entries)
	}
	if err := checkGhostTicks(held, frameRate, r.sess.Tag.Config().SyncGranularity, spec); err != nil {
		return GhostStatus{}, err
	}
	rec, err := r.sess.Ctl.ProgramForRadar(spec.trajectory(), r.sess.Scene.Radar, spec.rate(frameRate), spec.Start)
	if err != nil {
		return GhostStatus{}, err
	}
	return GhostStatus{
		Index:   len(r.sess.Ctl.Records()) - 1,
		Start:   rec.Start,
		Tick:    rec.Tick,
		Entries: len(rec.Entries),
	}, nil
}

// GhostStatuses lists the room's disclosure records.
func (r *Room) GhostStatuses() []GhostStatus {
	r.ghostMu.Lock()
	recs := r.sess.Ctl.Records()
	r.ghostMu.Unlock()
	out := make([]GhostStatus, len(recs))
	for i, rec := range recs {
		out[i] = GhostStatus{Index: i, Start: rec.Start, Tick: rec.Tick, Entries: len(rec.Entries)}
	}
	return out
}
